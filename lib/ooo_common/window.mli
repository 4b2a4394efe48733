(** A bounded window over a program's correct-path retirement stream.

    The cycle engine fetches the correct path by retirement index.  The
    window holds the uops from the oldest uncommitted index ([base]) to
    the fetch frontier: a fetch past the frontier pulls the next uop
    from the source, a commit drops everything below it.  Besides the
    uop, each retained index carries the sequence number of its last
    dispatch, which the STRAIGHT operand determination looks producers
    up by.  Every detailed run reads a live ISS session through
    {!of_source}. *)

type t

val of_source :
  length:int -> next:(unit -> Iss.Trace.uop) -> skip:(int -> unit) -> t
(** A stream of [length] uops.  [next ()] produces the next uop in
    retirement order; [skip n] advances the source so that the next
    [next ()] produces index [n] (only called by {!seek}, before any
    [next]).  The window calls [next] exactly once per index it
    retains, never past [length]. *)

val of_array : Iss.Trace.uop array -> t
(** The stream of an already collected trace: the array-fed reference
    of the tests and the engine-only perf suite. *)

val length : t -> int
(** Uops in the whole stream. *)

val base : t -> int
(** The oldest retained index: everything below it has committed. *)

val get : t -> int -> Iss.Trace.uop
(** [get w i] is the uop at retirement index [i], pulling from the
    source up to [i] when it lies past the frontier.
    @raise Invalid_argument when [i] is below {!base} or not below
    {!length}. *)

val find : t -> int -> Iss.Trace.uop
(** Like {!get} for a retained index; {!Iss.Trace.placeholder} for any
    other, without pulling. *)

val seq : t -> int -> int
(** The dispatch sequence number recorded for a retained index; [-1]
    when none is, or when the index is no longer retained. *)

val set_seq : t -> int -> int -> unit
(** Record the sequence number of a retained index's dispatch. *)

val release : t -> int -> unit
(** [release w i] drops every index below [i] (commit has passed it). *)

val seek : t -> int -> unit
(** [seek w n] positions a fresh window at index [n], skipping the
    source ahead: how a restored engine resumes at its committed count.
    @raise Invalid_argument when the window has already been read or
    [n] is outside [0, length]. *)

val frontier : t -> int
(** One past the newest index pulled from the source: every uop the
    engine has read, and so every index its state can name, lies below
    it.  It only grows ({!seek} sets it on a fresh window). *)

val high_water : t -> int
(** The largest number of indices retained at once so far. *)
