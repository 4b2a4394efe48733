(** The paper's tables (FIGURES.md) from a set of sweep records: Table I
    and Fig. 10 (which simulate no cycles), Figs. 11-17, Section VI-B,
    the front-end-depth and IR-level ablations, the ROB sweep and the
    Section III-B SPADD count, each with the paper's value beside the
    measured one where the paper gives it.  Tables iterate over the
    records they are given — a table whose points the grid lacks is
    left out, a missing cell renders as "—" — so any grid renders;
    {!Grid.paper} fills every one. *)

val render : quick:bool -> Runner.record list -> string
(** The full FIGURES.md body (markdown).  [quick] names the workload
    sizes of the grid: Fig. 16 compiles and runs (on the ISS) each
    workload the records name at those sizes, and a row carries the
    paper's value only when its run has the paper grid's size. *)
