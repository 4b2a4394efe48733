(** Benchmark programs in MiniC.

    [dhrystone] and [coremark] re-implement the algorithmic structure of
    the paper's two benchmarks (Dhrystone 2.1 and CoreMark, Section V-A)
    in our C subset — see DESIGN.md "Substitutions".  The microkernels
    serve the tests, the examples, and the ablations. *)

type t = {
  name : string;
  source : string;        (** MiniC source text *)
  iterations : int;       (** iteration count baked into the source *)
}

val dhrystone : ?iterations:int -> unit -> t
(** Record assignment, parameter passing, 30-char string comparison,
    Proc1..Proc8/Func1..Func3-style procedures. *)

val coremark : ?iterations:int -> unit -> t
(** CoreMark's three kernels — linked-list find/reverse, 8x8 matrix
    multiply with bit manipulation, a token-classifying state machine —
    chained through a CRC-16. *)

val fib : ?n:int -> unit -> t
(** Recursive Fibonacci: deep call tree. *)

val iota : ?n:int -> unit -> t
(** The paper's Fig. 10 example: fill an array with 0..n-1 through a
    pointer parameter. *)

val sort : ?n:int -> unit -> t
(** Bubble sort: nested loops, data-dependent swaps. *)

val quicksort : ?n:int -> unit -> t
(** Recursive quicksort: stresses the calling convention. *)

val pointer_chase : ?nodes:int -> ?hops:int -> unit -> t
(** Large-stride pointer chasing: defeats the stream prefetcher and
    exercises the cache hierarchy. *)

val stream : ?iterations:int -> unit -> t
(** STREAM-like phased loop kernel (copy / scale / reduce / triad /
    strided gather) whose CPI varies phase to phase — the long-workload
    showcase for interval sampling.  One outer iteration retires
    ~300k instructions; the default 100 iterations retire ~30M, which
    exact simulation still finishes in seconds (DESIGN.md §16). *)

val wasm_sieve : ?limit:int -> unit -> t
(** WAT source: sieve of Eratosthenes with composite flags in linear
    memory; prints the prime count.  Exercises the WASM front-end's
    loads/stores and nested structured control. *)

val wasm_crc32 : ?nbytes:int -> unit -> t
(** WAT source: bitwise CRC-32 over LCG bytes staged in linear memory;
    globals, an inner helper call, and unsigned shifts. *)

val wasm_expr : ?iters:int -> unit -> t
(** WAT source: deep-operand-stack expression kernel — 16 terms live
    simultaneously each round, the distance-pressure profile that
    motivated the WASM front-end (DESIGN.md §15). *)

(** {1 The registry}

    The one table from a workload name to a program, which every tool
    resolves through.  A name is spelled as its program's [name] and
    has a default program, the paper grid's size (dhrystone ×200,
    coremark ×5, stream ×100, the other constructors' defaults), and a
    quick one (×30, ×2, ×1; pointer_chase 256/200, wasm_sieve 400,
    wasm_crc32 64, wasm_expr 100; the other kernels unchanged). *)

val names : string list
(** Every registered name, in registry order. *)

val synopsis : string
(** The names for a usage text, an iterated one marked as taking a
    count: ["dhrystone[:N], coremark[:N], fib, ..."]. *)

val resolve : quick:bool -> string -> t
(** [resolve ~quick "name"] is the name's default program, or its quick
    program when [quick]; ["name:N"] is dhrystone, coremark or stream at
    [N >= 1] iterations, whatever [quick].
    @raise Diag.Error code [Config_error], listing the names, on an
    unknown name, a count given to a kernel, or a count that is not a
    positive decimal integer. *)

val spelling : t -> string
(** What {!resolve} maps back to [w]: ["name:N"] for an iterated
    program, else the bare name (at the size [w] was resolved at). *)
