(** Cycle accounting (CPI stack).

    The engine attributes every simulated cycle to exactly one bucket, so
    the buckets of a finished run always sum to the cycle count:

    - [base]: cycles that committed at least one instruction, plus
      head-of-ROB stalls on execution latency or true data dependences;
    - [frontend]: the window is empty (or refilling) because fetch is the
      limiter — instruction-cache misses and pipeline fill;
    - [branch_squash]: redirect, recovery-walk, and refetch-refill cycles
      after a misprediction, memory-order violation, or injected recovery;
    - [memory]: the head of the ROB is a load/store waiting on the memory
      hierarchy, or waits on an in-flight load's value;
    - [structural]: the head is ready but not selected — issue-port
      conflicts and the dispatch-to-issue depth.

    See EXPERIMENTS.md ("Reading the CPI stack") for the heuristics. *)

type cpi_stack = {
  base : int;
  frontend : int;
  branch_squash : int;
  memory : int;
  structural : int;
}

val empty_cpi : cpi_stack

val cpi_total : cpi_stack -> int
(** Sum of all buckets; equals [stats.cycles] for an engine run. *)

val cpi_to_assoc : cpi_stack -> (string * int) list
(** Stable field order: base, frontend, branch_squash, memory,
    structural. *)

val cpi_sub : cpi_stack -> cpi_stack -> cpi_stack
(** Bucket-wise difference [a - b]: the cycles charged between two
    mid-run snapshots (interval measurement excluding its detailed
    warmup prefix). *)

(** One-cycle classification, charged by the engine's per-cycle loop. *)
type bucket = Base | Frontend | Branch_squash | Memory | Structural

type cpi_acc
(** Mutable accumulator; one per engine run. *)

val fresh_acc : unit -> cpi_acc
val charge : cpi_acc -> bucket -> unit
val freeze : cpi_acc -> cpi_stack

val save_acc : Buffer.t -> cpi_acc -> unit
(** Serialize the accumulator for checkpointing. *)

val load_acc : Bin.reader -> cpi_acc -> unit
(** Inverse of {!save_acc}.  @raise Bin.Corrupt on malformed input. *)

module Json = Json
(** The codec of lib/json.  This alias exists only because [stackbench/]
    names it [Ooo_common.Stats.Json] and [BENCHMARK.json] freezes that
    directory; every other module uses [Json] directly. *)

val cpi_to_json : cpi_stack -> Json.t
(** The five buckets as an object of integers, in {!cpi_to_assoc}
    order. *)

val cpi_of_json : Json.t -> cpi_stack
(** Inverse of {!cpi_to_json}.  @raise Json.Parse_error on a missing or
    non-integer bucket. *)

val mix_to_json : (string * int) list -> Json.t
val mix_of_json : Json.t -> (string * int) list
(** A retired-instruction mix ([Engine.stats.mix], the Fig. 15 buckets)
    as an object of integers, in list order, and back.
    @raise Json.Parse_error on anything but an object of integers. *)
