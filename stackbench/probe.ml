(* Host measurements the benchmark takes at layer boundaries: a
   monotonic clock, words allocated by the OCaml runtime, and peak
   resident memory. *)

(* Seconds on CLOCK_MONOTONIC.  The clock is system-wide, so a span a
   pool worker times lines up with the parent's spans. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated on the minor heap so far: the small, short-lived
   allocations (boxed values, closures, records) a hot loop makes.  The
   difference across a call repeats exactly for the same call on the
   same inputs; counters that involve promotion do not, because what a
   minor collection inside the call promotes depends on what was
   allocated before it. *)
let alloc_words () = Gc.minor_words ()

(* [measure f] runs [f] and returns its result with the words it
   allocated. *)
let measure f =
  let a0 = alloc_words () in
  let r = f () in
  (r, alloc_words () -. a0)

(* Peak resident set size of this process in MB (VmHWM), 0 when
   /proc is unavailable. *)
let peak_rss_mb () =
  let parse line =
    Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines
  with
  | exception Sys_error _ -> 0.
  | lines ->
    List.fold_left
      (fun acc l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           try parse l with Scanf.Scan_failure _ | End_of_file -> acc
         else acc)
      0. lines

(* The largest peak RSS a pool worker reported for itself. *)
let remote_peak = ref 0.
let note_remote_rss mb = remote_peak := Float.max !remote_peak mb
let peak_rss_all_mb () = Float.max (peak_rss_mb ()) !remote_peak

(* ---------- host speed ---------- *)

(* A two-core VM shared with other tenants changes speed by 20-80% over
   seconds to minutes (a fixed CPU loop slows with the simulator), so
   raw wall times of identical passes spread more than any useful
   regression bound.  The benchmark therefore times a fixed reference
   loop between layer calls and scales each stretch of wall time by
   [reference / measured loop time], averaged over the measurements at
   the stretch's two ends: time at a fixed host speed.  The loop is this
   file's own code.  NOTES.md gives how far known changes to the
   program move the scaled times against the raw ones. *)

let loop_table = Array.init 4096 (fun i -> ((i * 40503) + 12345) land 4095)
let loop_buffer = Array.make 65536 0

(* Dependent loads over a 32 KB table and, every eighth step, three
   stores into a 512 KB buffer, the stores a hot loop makes when it
   allocates into the minor heap: about 0.4 ms on a 2 GHz Xeon vCPU.  It
   allocates nothing, so it never runs or moves a collection. *)
let loop_body () =
  let x = ref 1 and s = ref 0 and p = ref 0 in
  for i = 1 to 150_000 do
    x := loop_table.(!x);
    s := !s + (!x lxor i);
    if i land 7 = 0 then begin
      let q = !p in
      loop_buffer.(q) <- !s;
      loop_buffer.(q + 1) <- i;
      loop_buffer.(q + 2) <- !x;
      p := (q + 4) land 65532
    end
  done;
  ignore (Sys.opaque_identity !s)

(* The loop's time, after an untimed pass that reads the table and
   writes the buffer back into cache: the timed loop then depends
   neither on the program's memory footprint nor, in a freshly forked
   pool worker, on copying the buffer's pages on first write. *)
let loop_time () =
  let w = ref 0 in
  for i = 0 to Array.length loop_table - 1 do
    w := !w + loop_table.(i)
  done;
  for i = 0 to Array.length loop_buffer - 1 do
    loop_buffer.(i) <- !w + i
  done;
  let t = now () in
  loop_body ();
  now () -. t

(* The loop's time at the reference speed, seconds. *)
let reference_seconds = 0.0005

(* A layer boundary takes a sample once the program has allocated this
   many words since the last one, about every 30 ms of simulation.
   Counting words rather than seconds puts the samples at the same
   points of every run, so the driver's collections and peak memory
   repeat exactly. *)
let sample_words = 2_000_000.

type pace = {
  mutable active : bool;
  mutable last : float;          (* end of the latest sample *)
  mutable last_words : float;    (* [alloc_words] at that point *)
  mutable recent : float list;   (* latest loop times, newest first *)
  mutable scale : float;         (* reference / median of [recent] *)
  mutable scaled : float;        (* scaled seconds so far *)
  mutable loops : float list;    (* every loop time of this stretch *)
}

let pace =
  { active = false; last = 0.; last_words = 0.; recent = []; scale = 1.;
    scaled = 0.; loops = [] }

let median3 = function
  | [ a ] -> a
  | [ a; b ] -> (a +. b) /. 2.
  | l -> List.nth (List.sort compare l) 1

(* Close the stretch at a measurement of the host speed, scaled at the
   mean of the speeds measured at its two ends.  Warm-up and loop are
   left out. *)
let sample () =
  let t = now () in
  let k = loop_time () in
  pace.loops <- k :: pace.loops;
  pace.recent <- List.filteri (fun i _ -> i < 3) (k :: pace.recent);
  let scale = reference_seconds /. median3 pace.recent in
  pace.scaled <- pace.scaled +. ((t -. pace.last) *. (pace.scale +. scale) /. 2.);
  pace.scale <- scale;
  pace.last <- now ();
  pace.last_words <- alloc_words ()

(* Start timing a stretch (a set-up or a pass) at reference speed. *)
let start_paced () =
  pace.active <- true;
  pace.recent <- [];
  pace.loops <- [];
  pace.last <- now ();
  sample ();
  pace.scaled <- 0.

(* Called at each layer boundary outside any other layer call. *)
let maybe_sample () =
  if pace.active && alloc_words () -. pace.last_words >= sample_words then
    sample ()

(* End the stretch: its scaled seconds (reference-loop time excluded) and
   the loop times measured during it. *)
let stop_paced () =
  sample ();
  pace.active <- false;
  (pace.scaled, pace.loops)

(* Run [f], a stretch of work that does not run at this process's speed
   (a pool of workers), and scale it by [scale ()], read after [f]
   returns. *)
let paced_by scale f =
  if pace.active then sample ();
  let r = f () in
  if pace.active then begin
    let t = now () in
    pace.scaled <- pace.scaled +. ((t -. pace.last) *. scale ());
    pace.last <- t
  end;
  r
