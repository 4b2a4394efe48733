(* Output checks, run after the timed passes.  Each compares a result
   with a reference that does not come from the code path it checks:
   the SSA interpreter on unoptimized IR for program behaviour, an exact
   CPI recorded in this directory for sampled estimates, and the
   functional simulator for mutants the validator let through.  Each
   check returns the reasons it failed; none means it passed. *)

module Engine = Ooo_common.Engine
module Recombine = Sample.Recombine

let when_ cond msg = if cond then [ msg ] else []

(* Output, exit value and globals against the interpreter's. *)
let observed ~(expected : Layer.observed) (actual : Layer.observed) :
  string list =
  when_ (expected.Layer.output <> actual.Layer.output)
    (Printf.sprintf "output %S, expected %S" actual.Layer.output
       expected.Layer.output)
  @ when_ (expected.Layer.exit_value <> actual.Layer.exit_value)
    (Printf.sprintf "exit value %ld, expected %ld" actual.Layer.exit_value
       expected.Layer.exit_value)
  @ when_ (expected.Layer.globals <> actual.Layer.globals)
    "final globals differ from the interpreter's"

(* A finished engine run validated every commit against the ISS trace,
   committed exactly the instructions the ISS retired, and charged
   every cycle to one CPI bucket. *)
let engine ~retired (s : Engine.stats) : string list =
  when_ (s.Engine.commits_checked <> s.Engine.committed)
    (Printf.sprintf "checker validated %d of %d commits"
       s.Engine.commits_checked s.Engine.committed)
  @ when_ (s.Engine.committed <> retired)
    (Printf.sprintf "engine committed %d instructions, ISS retired %d"
       s.Engine.committed retired)
  @ when_ (Ooo_common.Stats.cpi_total s.Engine.cpi_stack <> s.Engine.cycles)
    (Printf.sprintf "CPI buckets sum to %d, not %d cycles"
       (Ooo_common.Stats.cpi_total s.Engine.cpi_stack) s.Engine.cycles)

(* The estimate without its host time, which differs between runs. *)
let simulated (e : Recombine.estimate) =
  { e with Recombine.host_seconds = 0. }

(* Sampled CPI: the warm request equals the cold one exactly, and both
   land within [Recombine.check]'s tolerance of the recorded exact
   simulation of the same program. *)
let sampled ~(cold : Recombine.estimate) ~(warm : Recombine.estimate)
    ~exact_cycles ~exact_insns ~floor : string list =
  let within name e =
    let v = Recombine.check e ~exact_cycles ~floor in
    when_ (not v.Recombine.ok)
      (Printf.sprintf "%s CPI %.5f is %.5f from exact %.5f (tolerance %.5f)"
         name e.Recombine.cpi v.Recombine.err v.Recombine.exact_cpi
         v.Recombine.tolerance)
  in
  when_ (simulated cold <> simulated warm)
    (Printf.sprintf "warm CPI %.6f differs from cold CPI %.6f"
       warm.Recombine.cpi cold.Recombine.cpi)
  @ when_ (cold.Recombine.total_insns <> exact_insns)
    (Printf.sprintf "run retired %d instructions, the reference %d"
       cold.Recombine.total_insns exact_insns)
  @ within "cold" cold @ within "warm" warm

(* Deterministic counts of a later pass, traced or not, against the
   first pass's: every simulated statistic, size and verdict repeats. *)
let counts ~(first : Counts.snapshot) (later : Counts.snapshot) : string list =
  let differing a b =
    List.filter_map
      (fun (k, v) ->
         match List.assoc_opt k b with
         | Some w when compare v w = 0 -> None
         | _ -> Some k)
      a
  in
  let names =
    differing first.Counts.sums later.Counts.sums
    @ differing later.Counts.sums first.Counts.sums
    @ differing first.Counts.ops later.Counts.ops
    @ differing later.Counts.ops first.Counts.ops
    |> List.sort_uniq compare
  in
  when_ (names <> [])
    ("counts differ from the first pass's: " ^ String.concat ", " names)

(* Error findings of a verifier on a correct image. *)
let clean (findings : Lint_report.finding list) : string list =
  List.map Lint_report.finding_to_string (Lint_report.errors findings)

type mutant = Caught | Equivalent | Missed

(* A mutant the validator did not reject is a miss unless the ISS shows
   it behaves exactly like the original. *)
let mutant ~caught ~original ~mutated =
  if caught then Caught else if original = mutated then Equivalent else Missed
