(** Recombining per-interval CPI measurements into a whole-run
    estimate with error bars.

    The point estimate is the instruction-weighted mean CPI
    [sum cycles / sum len] — exact integer sums, so it is independent
    of the order results arrive from the pool.  The standard error
    treats the per-interval CPIs as independent draws:
    [SE = stddev(cpi_i) / sqrt k], zero when fewer than two intervals
    were measured, and [ci95 = 1.96 * SE].  With systematic sampling
    ([every > 1]) the measured intervals cover only a fraction of the
    run; [est_cycles = cpi * total_insns] extrapolates to the whole
    run. *)

type estimate = {
  intervals : int;            (** measured intervals recombined *)
  measured_insns : int;       (** sum of interval lengths *)
  total_insns : int;          (** whole-run retired instructions *)
  cpi : float;                (** instruction-weighted mean CPI *)
  se : float;                 (** standard error of the mean CPI *)
  ci95 : float;               (** 1.96 * [se] *)
  est_cycles : float;         (** [cpi * total_insns] *)
  stack : (string * float) list;
  (** per-bucket CPI contributions; sums to [cpi] *)
  host_seconds : float;       (** summed per-interval simulation time *)
}

val merge_stacks :
  measured_insns:int -> (string * int) list list -> (string * float) list
(** Recombine per-interval CPI-stack buckets into per-instruction
    contributions.  Bucket names are the union across every interval in
    first-seen order; an interval lacking a bucket contributes zero
    cycles to it (it never raises, whatever the shape). *)

val recombine : total_insns:int -> Interval.result list -> estimate
(** Order-insensitive (results are sorted by interval index before any
    float accumulates).  @raise Diag.Error code [Config_error] on an
    empty list or a nonpositive measured length. *)

val report_json :
  workload:string -> target:string -> spec:Spec.t -> estimate ->
  Json.t
(** The sampled-CPI report, schema ["straight-sample/1"] — written by
    [straightsim -sample-json] and uploaded as a CI artifact.  Schema
    documented in EXPERIMENTS.md. *)

type verdict = {
  ok : bool;
  exact_cpi : float;
  err : float;        (** [|cpi - exact_cpi|] *)
  tolerance : float;  (** [max (ci95, floor * exact_cpi)] *)
}

val check : estimate -> exact_cycles:int -> floor:float -> verdict
(** Full-vs-sampled validation: does the sampled estimate land within
    its own reported confidence interval of the exact-simulation CPI?
    [floor] is a relative slack (e.g. [0.02] = 2%) below which the
    comparison cannot fail — with few intervals the CI estimate itself
    is noisy, so an absolute floor keeps the gate meaningful without
    being flaky. *)
