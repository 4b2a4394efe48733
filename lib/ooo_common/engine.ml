(* Cycle-level out-of-order core model, shared between the STRAIGHT and the
   superscalar RV32IM pipelines (Section V-A: "both simulators share common
   codes for the most part").

   The model is trace-driven on the correct path (the functional simulator
   supplies oracle branch outcomes and memory addresses, pulled through a
   bounded [Window] as fetch reaches them) and fetches
   wrong-path instructions from the static image after a misprediction, so
   that squash cost — the ROB walk whose length is the number of squashed
   entries — is modeled faithfully.  See DESIGN.md for the wrong-path
   modelling notes.

   Differences between the two cores are concentrated in:
   - operand determination (RMT lookups + free list vs. RP arithmetic),
   - front-end depth (8 vs. 6 stages),
   - misprediction recovery (ROB walk at fetch width + RMT restore vs. a
     single ROB read).

   Hot-path organization: because sequence numbers are allocated
   monotonically, committed at the head, and squashed as a suffix, every
   pipeline structure is a seq-sorted sequence.  The ROB, LDQ and STQ
   are ring deques of seqs whose squash is a suffix truncation; the
   issue queue is a count, since its members are exactly the ROB's
   unissued entries, and beside it the subset with every operand
   available is kept by age, which is all issue scans.  Operand
   readiness is event-driven: a consumer holds a count of outstanding
   producers, and a producer holds the seqs of its waiting consumers,
   woken either from a timing wheel (slots of producer seqs) when the
   value becomes available or when the producer commits.  None of this
   changes simulated timing — cycle counts are bit-identical to the
   original list/Hashtbl engine (asserted by test_stats.ml against
   recorded golden counts).

   Per-instruction state is sized by the ROB, not by the front end, and
   allocates nothing per instruction.  The in-flight window is a ring
   of records indexed by [seq land mask], one per slot: dispatch fills
   the slot's record ([dyn]) and commit and squash mark it dead, so no
   hot-path store writes a record pointer.  The front-end queue has no
   capacity (fetch keeps going while dispatch stalls, by hundreds of
   thousands of uops on a long miss chain) and keeps only what fetch
   sets, one column per field.  Everything that names another
   instruction names it by seq — a uop's at most two producers, a
   producer's waiters, a wheel slot, a pending recovery — and is
   resolved through the window ([win_get]).  Seqs are never reused, so
   a reference to a squashed or committed instruction fails that lookup
   and is skipped; those are exactly the references whose effect could
   never be observed (a dead consumer's counter, a dead producer whose
   consumers all died with it).

   All simulation state lives in an explicit record [t] so a run can be
   advanced one cycle at a time ([create] / [step] / [finish]) and
   checkpointed mid-flight ([save] / [load]): the serialized image
   covers every structure above plus the predictors, caches, fault
   injector, and CPI accounting, with the fixpoint contract
   [load (save t) (create ...); run n  ==  run n] cycle-for-cycle. *)

module Trace = Iss.Trace

type activity = {
  mutable rename_reads : int;      (* RMT read ports exercised *)
  mutable rename_writes : int;     (* RMT writes *)
  mutable freelist_ops : int;
  mutable rp_ops : int;            (* STRAIGHT operand-determination adds *)
  mutable rf_reads : int;
  mutable rf_writes : int;
  mutable iq_wakeups : int;
  mutable rob_writes : int;
  mutable rob_walk_steps : int;
  mutable alu_ops : int;
  mutable agu_ops : int;
}

let fresh_activity () =
  { rename_reads = 0; rename_writes = 0; freelist_ops = 0; rp_ops = 0;
    rf_reads = 0; rf_writes = 0; iq_wakeups = 0; rob_writes = 0;
    rob_walk_steps = 0; alu_ops = 0; agu_ops = 0 }

(* One list of the counters, in checkpoint order: the engine image and
   the sweep record's JSON both walk it. *)
let activity_fields =
  [ ("rename_reads", (fun a -> a.rename_reads), fun a v -> a.rename_reads <- v);
    ("rename_writes", (fun a -> a.rename_writes), fun a v -> a.rename_writes <- v);
    ("freelist_ops", (fun a -> a.freelist_ops), fun a v -> a.freelist_ops <- v);
    ("rp_ops", (fun a -> a.rp_ops), fun a v -> a.rp_ops <- v);
    ("rf_reads", (fun a -> a.rf_reads), fun a v -> a.rf_reads <- v);
    ("rf_writes", (fun a -> a.rf_writes), fun a v -> a.rf_writes <- v);
    ("iq_wakeups", (fun a -> a.iq_wakeups), fun a v -> a.iq_wakeups <- v);
    ("rob_writes", (fun a -> a.rob_writes), fun a v -> a.rob_writes <- v);
    ("rob_walk_steps", (fun a -> a.rob_walk_steps), fun a v -> a.rob_walk_steps <- v);
    ("alu_ops", (fun a -> a.alu_ops), fun a v -> a.alu_ops <- v);
    ("agu_ops", (fun a -> a.agu_ops), fun a v -> a.agu_ops <- v) ]

(* Growable int buffer: a producer's waiters, a timing-wheel slot, the
   pending recoveries.  Cleared by resetting the length, so a reused
   buffer stops allocating once it has reached its largest size. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4 0; n = 0 }
  let clear b = b.n <- 0

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1
end

(* A dispatched instruction.  Each record belongs to one slot of the
   in-flight window: dispatch fills it, commit and squash mark it
   [dead], and it is reached only by a window lookup of its [seq]. *)
type dyn = {
  mutable seq : int;                (* [dead] once committed or squashed *)
  mutable uop : Trace.uop;
  mutable wrong_path : bool;
  mutable trace_idx : int;          (* -1 on the wrong path *)
  mutable fetched_at : int;
  mutable prod0 : int;              (* producer seqs in source order, *)
  mutable prod1 : int;              (* prod0 first; [no_producer] = none *)
  mutable prev_map : int;           (* RMT: the destination's mapping
                                       before this rename, for squash *)
  mutable dispatched_at : int;
  mutable issued : bool;
  mutable ready_at : int;           (* cycle the result is available *)
  mutable replay_bump : int;        (* extra wakeup delay for consumers *)
  mutable resume_idx : int;         (* mispredicted: the trace index to
                                       resume at after squash; else -1 *)
  mutable addr_known : bool;        (* stores: address resolved *)
  mutable executed_load : bool;
  mutable recovery_at : int;        (* pending recovery event; -1 = none *)
  mutable ras_snapshot : int;       (* RAS top-of-stack for recovery *)
  mutable n_unready : int;          (* producers whose value is pending *)
  waiters : Ibuf.t;
      (* seqs of consumers to wake on availability, oldest first; each
         wakes once, from the timing wheel at the producer's
         availability cycle or when the producer commits (the value is
         then readable from the register file) *)
}

(* Seqs start at 0, so no lookup matches a negative one. *)
let dead = -1
let no_producer = -1
let not_ready = max_int / 2

let fresh_dyn () =
  { seq = dead; uop = Trace.placeholder; wrong_path = false; trace_idx = -1;
    fetched_at = 0; prod0 = no_producer; prod1 = no_producer;
    prev_map = -1; dispatched_at = 0; issued = false; ready_at = not_ready;
    replay_bump = 0; resume_idx = -1; addr_known = false;
    executed_load = false; recovery_at = -1; ras_snapshot = 0; n_unready = 0;
    waiters = Ibuf.create () }

let mispredicted d = d.resume_idx >= 0

let n_producers d =
  if d.prod0 = no_producer then 0 else if d.prod1 = no_producer then 1 else 2

let producers d =
  List.filter (fun s -> s <> no_producer) [ d.prod0; d.prod1 ]

(* both ISAs name at most two sources *)
let add_producer d s =
  if d.prod0 = no_producer then d.prod0 <- s
  else if d.prod1 = no_producer then d.prod1 <- s
  else
    invalid_arg
      (Printf.sprintf "Engine: uop at 0x%x has more than two producers"
         d.uop.Trace.pc)

type stats = {
  cycles : int;
  committed : int;
  wrong_path_fetched : int;
  branch_mispredicts : int;
  return_mispredicts : int;
  memdep_violations : int;
  walk_stall_cycles : int;
  spadd_stall_slots : int;    (* dispatch slots lost to the SPADD limit *)
  checkpoint_stall_slots : int;
  l1i_misses : int;
  l1d_misses : int;
  l1d_accesses : int;
  mix : (string * int) list;        (* retired instruction kinds (Fig. 15) *)
  activity : activity;
  ipc : float;
  faults_injected : int;            (* fault-injection events fired *)
  commits_checked : int;            (* lockstep-checker validations; 0 = off *)
  cpi_stack : Stats.cpi_stack;      (* per-cycle attribution; sums to cycles *)
}

(* where fetch reads next; the index or pc is [t.fetch_at] *)
type fetch_mode =
  | Fetch_correct                   (* the trace index [fetch_at] *)
  | Fetch_wrong                     (* the wrong-path static pc [fetch_at] *)
  | Fetch_stalled                   (* waiting for a redirect *)

let fu_latency (p : Params.t) = function
  | Trace.FU_alu -> p.latency_alu
  | Trace.FU_mul -> p.latency_mul
  | Trace.FU_div -> p.latency_div
  | Trace.FU_branch -> 1
  | Trace.FU_load -> 1 (* + cache *)
  | Trace.FU_store -> 1

(* Seq-sorted ring deque of seqs (the ROB, LDQ and STQ): push at the
   back, commit pops the front, squash truncates the back.  Capacity
   grows on demand. *)
module Ring = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 64 0; head = 0; len = 0 }
  let length t = t.len
  let is_empty t = t.len = 0
  let get t i = t.buf.((t.head + i) land (Array.length t.buf - 1))
  let front t = t.buf.(t.head)
  let back t = get t (t.len - 1)

  let grow t =
    let nbuf = Array.make (2 * Array.length t.buf) 0 in
    for i = 0 to t.len - 1 do nbuf.(i) <- get t i done;
    t.buf <- nbuf;
    t.head <- 0

  let push_back t x =
    if t.len = Array.length t.buf then grow t;
    t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
    t.len <- t.len + 1

  let pop_front t =
    t.head <- (t.head + 1) land (Array.length t.buf - 1);
    t.len <- t.len - 1

  let pop_back t = t.len <- t.len - 1
end

(* The front-end queue: what fetch sets for each instruction it has not
   yet dispatched, one column per field, oldest first.  Nothing looks an
   undispatched instruction up by seq, so it has no record; the queue is
   unbounded (fetch keeps going while dispatch stalls) and grows on
   demand. *)
module Fq = struct
  type t = {
    mutable seq : int array;
    mutable idx : int array;          (* stream index; -1 on the wrong path *)
    mutable wuop : Trace.uop array;   (* the uop, written on the wrong path *)
    mutable at : int array;           (* fetch cycle *)
    mutable resume : int array;       (* [dyn.resume_idx] *)
    mutable head : int;
    mutable len : int;
  }

  let create () =
    { seq = Array.make 64 0; idx = Array.make 64 0;
      wuop = Array.make 64 Trace.placeholder; at = Array.make 64 0;
      resume = Array.make 64 0; head = 0; len = 0 }

  (* the column index of the [i]th oldest entry *)
  let slot q i = (q.head + i) land (Array.length q.seq - 1)

  let grow q =
    let col a fill =
      let b = Array.make (2 * Array.length a) fill in
      for i = 0 to q.len - 1 do b.(i) <- a.(slot q i) done;
      b
    in
    q.idx <- col q.idx 0;
    q.wuop <- col q.wuop Trace.placeholder;
    q.at <- col q.at 0;
    q.resume <- col q.resume 0;
    q.seq <- col q.seq 0;
    q.head <- 0

  let push q ~seq ~idx ~(uop : Trace.uop) ~at =
    if q.len = Array.length q.seq then grow q;
    let i = slot q q.len in
    q.seq.(i) <- seq;
    q.idx.(i) <- idx;
    if idx < 0 then q.wuop.(i) <- uop;
    q.at.(i) <- at;
    q.resume.(i) <- -1;
    q.len <- q.len + 1

  (* the youngest entry was mispredicted: fetch resumes at [idx] *)
  let mispredict q idx = q.resume.(slot q (q.len - 1)) <- idx

  let pop_front q =
    q.head <- (q.head + 1) land (Array.length q.seq - 1);
    q.len <- q.len - 1
end

let next_pow2 n =
  let r = ref 1 in
  while !r < n do r := !r * 2 done;
  !r

(* ---------- simulation state ---------- *)

type t = {
  p : Params.t;
  uops : Window.t;                  (* the correct-path retirement stream *)
  n_trace : int;
  decode_static : int -> Trace.uop option;
  checker : Checker.t option;
  hier : Cache.hierarchy;
  pred : Branch_pred.t;
  ras : Branch_pred.Ras.t;
  memdep : Memdep.t;
  inj : Inject.t;
  act : activity;
  dummy : dyn;                      (* [win_get]'s "none" *)
  (* in-flight window: a ring of records indexed by seq, one per slot.
     A slot's record is live only while its instruction is in the ROB
     (marked [dead] at commit and squash), so a live record in the slot
     dispatch needs means the ROB's seq span outgrew the capacity. *)
  mutable win : dyn array;
  mutable win_mask : int;
  mutable next_seq : int;
  (* pipeline structures, all seq-sorted *)
  fq : Fq.t;
  rob : Ring.t;
  ldq : Ring.t;
  stq : Ring.t;
  (* issue queue: the ROB's unissued instructions, [iq_n] of them;
     [ready] holds the seqs of those whose operands are all available
     ([n_unready = 0]), oldest first, which is all issue scans *)
  mutable iq_n : int;
  ready : Ibuf.t;
  (* timing wheel for operand wakeups (spans the worst-case latency):
     per cycle, the seqs of the producers whose values become available *)
  wheel : Ibuf.t array;
  wheel_mask : int;
  (* free issue ports this cycle, by [port_of] *)
  ports : int array;
  (* rename state (superscalar) *)
  rmt : int array;
  mutable free_regs : int;
  is_rmt : bool;
  checkpoint_limit : int;
  mutable inflight_ctrl : int;
  mutable spadd_stalls : int;
  mutable checkpoint_stalls : int;
  mutable rename_blocked_until : int;
  mutable fetch_stall_until : int;
  mutable mode : fetch_mode;
  mutable fetch_at : int;
  mutable now : int;
  mutable done_ : bool;
  mutable committed : int;
  mutable commits_now : int;        (* correct-path commits this cycle *)
  mutable wrong_fetched : int;
  mutable branch_misp : int;
  mutable ret_misp : int;
  mutable walk_stalls : int;
  cpi : Stats.cpi_acc;
  mutable redirect_until : int;     (* CPI attribution of post-squash refill *)
  mix_counts : int array;
  (* pending recovery events, oldest first, four ints each (see
     [push_recovery]) *)
  recoveries : Ibuf.t;
  (* watchdog + diagnostics state; last 8 commits kept in a ring *)
  mutable last_commit_cycle : int;
  lc_idx : int array;
  lc_pc : int array;
  mutable lc_n : int;
  max_cycles : int;
}

let watchdog_limit = 20_000

(* retired-kind mix, counted without hashing (labels from
   Trace.kind_label: LD ST Jump+Branch ALU RMOV NOP) *)
let mix_slot (u : Trace.uop) =
  match u.Trace.fu with
  | Trace.FU_load -> 0
  | Trace.FU_store -> 1
  | Trace.FU_branch -> 2
  | Trace.FU_mul | Trace.FU_div -> 3
  | Trace.FU_alu ->
    if u.Trace.is_rmov then 4 else if u.Trace.is_nop then 5 else 3

let mix_labels = [| "LD"; "ST"; "Jump+Branch"; "ALU"; "RMOV"; "NOP" |]

let create (p : Params.t) ~(window : Window.t)
    ~(decode_static : int -> Trace.uop option)
    ?(checker : Checker.t option) ?(warm : Warm.t option) () : t =
  let n_trace = Window.length window in
  if n_trace = 0 then
    Diag.error Diag.Config_error "empty trace: nothing to simulate";
  (* the wheel spans the worst-case latency (full memory hierarchy +
     fault stretch) *)
  let wheel_size =
    let mem =
      p.l1d.Params.hit_latency + p.l2.Params.hit_latency
      + (match p.l3 with Some c -> c.Params.hit_latency | None -> 0)
      + p.memory_latency
    in
    let lat =
      max (max p.latency_alu (max p.latency_mul p.latency_div)) (1 + mem)
    in
    (* + injected stretch (<= 9), replay bump, issue cycle, margin *)
    next_pow2 (lat + 32)
  in
  let arch_regs = 32 in
  (* Warmed handoff: adopt the functionally warmed tables instead of
     cold ones, with their warming-phase counters zeroed so measured
     miss rates cover only the detailed region.  Memdep stays cold — it
     trains on timing violations the ISS cannot observe. *)
  let hier, pred, ras =
    match warm with
    | None ->
      (Cache.create_hierarchy p, Branch_pred.make p.predictor,
       Branch_pred.Ras.create ())
    | Some w ->
      Cache.reset_stats w.Warm.hier;
      (w.Warm.hier, w.Warm.pred, w.Warm.ras)
  in
  { p; uops = window; n_trace; decode_static; checker;
    hier; pred; ras;
    memdep = Memdep.create ();
    inj = Inject.make p.inject;
    act = fresh_activity ();
    dummy = fresh_dyn ();
    win = Array.init 1024 (fun _ -> fresh_dyn ());
    win_mask = 1023;
    next_seq = 0;
    fq = Fq.create ();
    rob = Ring.create ();
    ldq = Ring.create ();
    stq = Ring.create ();
    iq_n = 0;
    ready = Ibuf.create ();
    wheel = Array.init wheel_size (fun _ -> Ibuf.create ());
    wheel_mask = wheel_size - 1;
    ports = Array.make 5 0;
    rmt = Array.make 32 (-1);
    free_regs =
      (match p.rename with
       | Params.Rmt { phys_regs } | Params.Rmt_checkpoint { phys_regs; _ } ->
         phys_regs - arch_regs
       | Params.Rp -> max_int / 2);
    is_rmt =
      (match p.rename with
       | Params.Rmt _ | Params.Rmt_checkpoint _ -> true
       | Params.Rp -> false);
    checkpoint_limit =
      (match p.rename with
       | Params.Rmt_checkpoint { checkpoints; _ } -> checkpoints
       | _ -> max_int);
    inflight_ctrl = 0;
    spadd_stalls = 0;
    checkpoint_stalls = 0;
    rename_blocked_until = 0;
    fetch_stall_until = 0;
    mode = Fetch_correct;
    fetch_at = 0;
    now = 0;
    done_ = false;
    committed = 0;
    commits_now = 0;
    wrong_fetched = 0;
    branch_misp = 0;
    ret_misp = 0;
    walk_stalls = 0;
    cpi = Stats.fresh_acc ();
    redirect_until = 0;
    mix_counts = Array.make 6 0;
    recoveries = Ibuf.create ();
    last_commit_cycle = 0;
    lc_idx = Array.make 8 0;
    lc_pc = Array.make 8 0;
    lc_n = 0;
    max_cycles = 40 * n_trace + 200_000 }

(* ---------- in-flight window ---------- *)

(* allocation-free lookup of a seq in the ROB: [t.dummy] plays the role
   of [None] *)
let win_get t s =
  let d = t.win.(s land t.win_mask) in
  if d.seq = s && s >= 0 then d else t.dummy

let win_mem t s = s >= 0 && (t.win.(s land t.win_mask)).seq = s

(* the record of the [i]th oldest ROB entry *)
let rob_get t i = t.win.(Ring.get t.rob i land t.win_mask)

let win_grow t =
  (* live seqs are pairwise distinct modulo the old capacity, hence
     also modulo the doubled capacity: rehashing cannot collide *)
  let old = t.win in
  let ncap = 2 * Array.length old in
  let win = Array.make ncap t.dummy in
  Array.iter (fun d -> if d.seq <> dead then win.(d.seq land (ncap - 1)) <- d)
    old;
  Array.iteri (fun i d -> if d == t.dummy then win.(i) <- fresh_dyn ()) win;
  t.win <- win;
  t.win_mask <- ncap - 1

(* the record dispatch fills for seq [s]: its slot's, once no live
   instruction holds that slot *)
let rec win_slot t s =
  let d = t.win.(s land t.win_mask) in
  if d.seq = dead then d else begin win_grow t; win_slot t s end

(* [s] was waiting in the issue queue and its last operand became
   available: insert it into [ready] by age *)
let make_ready t s =
  let r = t.ready in
  Ibuf.push r s;
  let i = ref (r.Ibuf.n - 1) in
  while !i > 0 && r.Ibuf.a.(!i - 1) > s do
    r.Ibuf.a.(!i) <- r.Ibuf.a.(!i - 1);
    decr i
  done;
  r.Ibuf.a.(!i) <- s

(* drop the seqs at or after [first] from the end of a seq-sorted buffer *)
let truncate_from (b : Ibuf.t) first =
  while b.Ibuf.n > 0 && b.Ibuf.a.(b.Ibuf.n - 1) >= first do
    b.Ibuf.n <- b.Ibuf.n - 1
  done

(* ---------- wakeup plumbing ---------- *)

(* Wake d's consumers.  A consumer that has left the window was squashed
   (consumers commit after their producers), and nothing reads a
   squashed instruction's counter, so it is skipped.  A live one is in
   the issue queue: it registered at dispatch and cannot issue before
   its count reaches zero. *)
let fire_waiters t d =
  let w = d.waiters in
  for i = 0 to w.Ibuf.n - 1 do
    let s = w.Ibuf.a.(i) in
    let c = t.win.(s land t.win_mask) in
    if c.seq = s then begin
      c.n_unready <- c.n_unready - 1;
      if c.n_unready = 0 then make_ready t s
    end
  done;
  Ibuf.clear w

(* called once per issued instruction, with the final availability
   cycle (base latency + cache + injected stretch + replay bump) *)
let schedule_wakeup t d =
  let avail = d.ready_at + d.replay_bump in
  assert (avail - t.now < Array.length t.wheel);
  Ibuf.push t.wheel.(avail land t.wheel_mask) d.seq

(* A producer gone from the window committed (its waiters were woken
   then) or was squashed with every consumer it had. *)
let drain_wheel t =
  let slot = t.wheel.(t.now land t.wheel_mask) in
  for i = 0 to slot.Ibuf.n - 1 do
    let s = slot.Ibuf.a.(i) in
    let d = t.win.(s land t.win_mask) in
    if d.seq = s then fire_waiters t d
  done;
  Ibuf.clear slot

(* register d's dependence on producer s at dispatch: a producer outside
   the window (committed or never renamed) is readable immediately; one
   already issued with an availability in the past likewise *)
let register_producer t d s =
  let pr = win_get t s in
  if pr == t.dummy then ()
  else if pr.issued && pr.ready_at + pr.replay_bump <= t.now then ()
  else begin
    d.n_unready <- d.n_unready + 1;
    Ibuf.push pr.waiters d.seq
  end

let register_producers t d =
  if d.prod0 <> no_producer then register_producer t d d.prod0;
  if d.prod1 <> no_producer then register_producer t d d.prod1

(* the uop of the front-end entry in column [i] *)
let fq_uop t i =
  let q = t.fq in
  let idx = q.Fq.idx.(i) in
  if idx >= 0 then Window.get t.uops idx else q.Fq.wuop.(i)

(* [d] as fetch leaves the front-end entry in column [i], whose uop is
   [uop]: every field dispatch sets is at its initial value *)
let fill_fetched t d i uop =
  let q = t.fq in
  d.seq <- q.Fq.seq.(i);
  d.uop <- uop;
  d.trace_idx <- q.Fq.idx.(i);
  d.wrong_path <- d.trace_idx < 0;
  d.fetched_at <- q.Fq.at.(i);
  d.resume_idx <- q.Fq.resume.(i);
  d.prod0 <- no_producer;
  d.prod1 <- no_producer;
  d.prev_map <- -1;
  d.dispatched_at <- 0;
  d.issued <- false;
  d.ready_at <- not_ready;
  d.replay_bump <- 0;
  d.addr_known <- false;
  d.executed_load <- false;
  d.recovery_at <- -1;
  d.ras_snapshot <- 0;
  d.n_unready <- 0;
  Ibuf.clear d.waiters

let is_ctrl (u : Trace.uop) =
  match u.Trace.ctrl with
  | Trace.Cond _ | Trace.Uncond _ -> true
  | Trace.Not_ctrl -> false

(* ---------- squash ---------- *)
(* Every structure is seq-sorted, so a squash is a suffix truncation:
   O(squashed) instead of a full-window walk.  Walking the ROB's suffix
   youngest first, it takes each squashed instruction out of the issue
   queue count and the in-flight control count and undoes its rename.
   Returns the number of physical registers released: one per renamed
   (ROB-resident) squashed instruction with a destination. *)
let squash_from t first_bad_seq =
  truncate_from t.ready first_bad_seq;
  while Ring.length t.ldq > 0 && Ring.back t.ldq >= first_bad_seq do
    Ring.pop_back t.ldq
  done;
  while Ring.length t.stq > 0 && Ring.back t.stq >= first_bad_seq do
    Ring.pop_back t.stq
  done;
  let freed = ref 0 in
  while Ring.length t.rob > 0 && Ring.back t.rob >= first_bad_seq do
    let d = t.win.(Ring.back t.rob land t.win_mask) in
    Ring.pop_back t.rob;
    if not d.issued then t.iq_n <- t.iq_n - 1;
    if is_ctrl d.uop then t.inflight_ctrl <- t.inflight_ctrl - 1;
    if d.uop.Trace.has_dest && d.uop.Trace.dest_reg <> 0 then begin
      incr freed;
      if t.is_rmt then t.rmt.(d.uop.Trace.dest_reg) <- d.prev_map
    end;
    d.seq <- dead
  done;
  let q = t.fq in
  while q.Fq.len > 0 && q.Fq.seq.(Fq.slot q (q.Fq.len - 1)) >= first_bad_seq do
    q.Fq.len <- q.Fq.len - 1
  done;
  !freed

(* RAM-based RMT recovery walks the ROB over the squashed (younger)
   entries, undoing each mapping (Section II-A; [14] reports the penalty
   as several tens of cycles with a 256-entry ROB).  The checkpoint-free
   RMT cannot rename newly fetched instructions until the walk finishes,
   so the walk serializes with the refetch. *)
let walk_entries_after t seqno =
  (* the ROB is seq-sorted: binary-search the first younger entry *)
  let lo = ref 0 and hi = ref (Ring.length t.rob) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Ring.get t.rob mid > seqno then hi := mid else lo := mid + 1
  done;
  Ring.length t.rob - !lo

(* ---------- recovery ---------- *)

let fetch_correct t idx = t.mode <- Fetch_correct; t.fetch_at <- idx
let fetch_wrong t pc = t.mode <- Fetch_wrong; t.fetch_at <- pc

let do_recovery t ~(faulting : dyn) ~(resume_idx : int) ~(include_self : bool) =
  let first_bad = if include_self then faulting.seq else faulting.seq + 1 in
  (* read before the squash, which may mark [faulting] itself dead *)
  let ras_snapshot = faulting.ras_snapshot in
  let walk_len =
    match t.p.Params.rename with
    | Params.Rmt _ ->
      let n = walk_entries_after t (first_bad - 1) in
      t.act.rob_walk_steps <- t.act.rob_walk_steps + n;
      (n + t.p.Params.fetch_width - 1) / t.p.Params.fetch_width
    | Params.Rmt_checkpoint _ -> 0 (* checkpoint restore *)
    | Params.Rp -> 0 (* a single ROB entry read restores RP/SP/PC (Fig. 4) *)
  in
  let freed = squash_from t first_bad in
  (match t.p.Params.rename with
   | Params.Rmt _ | Params.Rmt_checkpoint _ ->
     (* the squash undid the squashed renames (the hardware walk; its
        time is modeled below); a mapping whose writer has committed
        reads the register file, like no mapping at all, so the RMT
        maps each register to its youngest writer in the ROB, or -1 *)
     for r = 0 to 31 do
       if t.rmt.(r) >= 0 && not (win_mem t t.rmt.(r)) then t.rmt.(r) <- -1
     done;
     (* the walk returns the squashed instructions' registers *)
     t.free_regs <- t.free_regs + freed;
     (* refetch is gated on walk completion (checkpoint-free RMT) *)
     t.rename_blocked_until <- max t.rename_blocked_until (t.now + walk_len);
     t.fetch_stall_until <- max t.fetch_stall_until (t.now + walk_len);
     if walk_len > 0 then t.walk_stalls <- t.walk_stalls + walk_len
   | Params.Rp ->
     t.fetch_stall_until <- max t.fetch_stall_until t.now);
  (* CPI: walk + refetch pipe refill are squash cost *)
  t.redirect_until <-
    max t.redirect_until (t.now + walk_len + t.p.Params.frontend_depth);
  Branch_pred.Ras.restore t.ras ras_snapshot;
  fetch_correct t resume_idx

(* ---------- commit ---------- *)

let commit t =
  let budget = ref t.p.Params.commit_width in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && not (Ring.is_empty t.rob) do
    let s = Ring.front t.rob in
    let d = t.win.(s land t.win_mask) in
    (* an instruction with a pending recovery must not retire before the
       redirect has been processed *)
    if d.issued && d.ready_at <= t.now
       && (d.recovery_at < 0 || t.now >= d.recovery_at)
    then begin
      Ring.pop_front t.rob;
      d.seq <- dead;
      (* the value is now in the committed register file: consumers
         still counting on this producer become ready *)
      fire_waiters t d;
      decr budget;
      (match d.uop.Trace.fu with
       | Trace.FU_load ->
         if Ring.length t.ldq > 0 && Ring.front t.ldq = s then
           Ring.pop_front t.ldq
       | Trace.FU_store ->
         if Ring.length t.stq > 0 && Ring.front t.stq = s then
           Ring.pop_front t.stq
       | _ -> ());
      (* orphaned wrong-path instructions drain through commit; their
         registers must return to the free list *)
      (match t.p.Params.rename with
       | (Params.Rmt _ | Params.Rmt_checkpoint _)
         when d.wrong_path && d.uop.Trace.has_dest
              && d.uop.Trace.dest_reg <> 0 ->
         t.free_regs <- t.free_regs + 1
       | _ -> ());
      if is_ctrl d.uop && t.inflight_ctrl > 0 then
        t.inflight_ctrl <- t.inflight_ctrl - 1;
      t.last_commit_cycle <- t.now;
      if not d.wrong_path then begin
        t.lc_idx.(t.lc_n land 7) <- d.trace_idx;
        t.lc_pc.(t.lc_n land 7) <- d.uop.Trace.pc;
        t.lc_n <- t.lc_n + 1;
        t.committed <- t.committed + 1;
        t.commits_now <- t.commits_now + 1;
        t.mix_counts.(mix_slot d.uop) <- t.mix_counts.(mix_slot d.uop) + 1;
        (match d.uop.Trace.fu with
         | Trace.FU_store when d.uop.Trace.mem_addr <> 0 ->
           (* drain through the store buffer: cache effects only *)
           ignore (Cache.data_access t.hier d.uop.Trace.mem_addr)
         | _ -> ());
        (match t.p.Params.rename with
         | (Params.Rmt _ | Params.Rmt_checkpoint _) when d.uop.Trace.has_dest ->
           (* the previous mapping of the destination becomes free *)
           t.free_regs <- t.free_regs + 1;
           t.act.freelist_ops <- t.act.freelist_ops + 1
         | _ -> ());
        if d.uop.Trace.fu = Trace.FU_alu && d.uop.Trace.is_nop
           && d.trace_idx = t.n_trace - 1
        then t.done_ <- true;
        if d.trace_idx = t.n_trace - 1 then t.done_ <- true
      end;
      (match t.checker with
       | Some ck ->
         Checker.on_commit ck ~cycle:t.now ~seq:s
           ~trace_idx:d.trace_idx ~wrong_path:d.wrong_path
           ~free_regs:t.free_regs
           ~golden:(Window.find t.uops d.trace_idx) d.uop
       | None -> ());
      (* the stream window keeps only uncommitted correct-path uops *)
      if not d.wrong_path then Window.release t.uops (d.trace_idx + 1)
    end
    else continue_ := false
  done

(* ---------- issue ---------- *)

(* The issue port an FU class takes, an index into [t.ports]. *)
let port_of = function
  | Trace.FU_alu -> 0
  | Trace.FU_mul -> 1
  | Trace.FU_div -> 2
  | Trace.FU_branch -> 3
  | Trace.FU_load | Trace.FU_store -> 4

(* A recovery event is four ints in [t.recoveries]: the cycle it is due,
   the faulting instruction's seq, the trace index fetch resumes at, and
   1 when the faulting instruction is refetched too (0 otherwise). *)
let push_recovery t ~at ~seq ~resume_idx ~include_self =
  let r = t.recoveries in
  Ibuf.push r at;
  Ibuf.push r seq;
  Ibuf.push r resume_idx;
  Ibuf.push r (if include_self then 1 else 0)

(* The LSQ searches below walk the seq-sorted STQ/LDQ from the oldest
   entry and stop at the first match. *)

(* an older store whose address is not yet known *)
let older_unknown_store t (d : dyn) =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < Ring.length t.stq
        && Ring.get t.stq !i < d.seq do
    if not (t.win.(Ring.get t.stq !i land t.win_mask)).addr_known then
      found := true;
    incr i
  done;
  !found

(* an older resolved store to word [addr_w] *)
let forwarding_store t (d : dyn) addr_w =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < Ring.length t.stq
        && Ring.get t.stq !i < d.seq do
    let s = t.win.(Ring.get t.stq !i land t.win_mask) in
    if s.addr_known && s.uop.Trace.mem_addr lsr 2 = addr_w then found := true;
    incr i
  done;
  !found

(* the oldest younger correct-path load that has executed at word
   [addr_w], or [t.dummy] *)
let violating_load t (d : dyn) addr_w =
  let victim = ref t.dummy and i = ref 0 in
  while !victim == t.dummy && !i < Ring.length t.ldq do
    let l = t.win.(Ring.get t.ldq !i land t.win_mask) in
    if l.seq > d.seq && l.executed_load && (not l.wrong_path)
       && l.uop.Trace.mem_addr lsr 2 = addr_w
    then victim := l;
    incr i
  done;
  !victim

let issue t =
  let p = t.p in
  let ports = t.ports in
  ports.(0) <- p.Params.n_alu;
  ports.(1) <- p.Params.n_mul;
  ports.(2) <- p.Params.n_div;
  ports.(3) <- p.Params.n_bc;
  ports.(4) <- p.Params.n_mem;
  let total = ref p.Params.issue_width in
  (* Oldest first over the ready entries: an entry still waiting for an
     operand can never issue, so skipping it changes nothing. *)
  let r = t.ready in
  let n = r.Ibuf.n in
  let kept = ref 0 in
  let i = ref 0 in
  while !i < n && !total > 0 do
    let d = t.win.(r.Ibuf.a.(!i) land t.win_mask) in
    if t.now >= d.dispatched_at + p.Params.dispatch_issue_latency then begin
      let port = port_of d.uop.Trace.fu in
      if ports.(port) > 0 then begin
        (* loads may have to hold for the memory-dependence
           predictor *)
        let lsq_hold =
          match d.uop.Trace.fu with
          | Trace.FU_load
            when (not d.wrong_path) && d.uop.Trace.mem_addr <> 0 ->
            older_unknown_store t d
            && Memdep.predict_conflict t.memdep d.uop.Trace.pc
          | _ -> false
        in
        if not lsq_hold then begin
          d.issued <- true;
          t.iq_n <- t.iq_n - 1;
          ports.(port) <- ports.(port) - 1;
          decr total;
          t.act.rf_reads <- t.act.rf_reads + n_producers d;
          t.act.iq_wakeups <- t.act.iq_wakeups + 1;
          if d.uop.Trace.has_dest then
            t.act.rf_writes <- t.act.rf_writes + 1;
          (match d.uop.Trace.fu with
           | Trace.FU_alu | Trace.FU_mul | Trace.FU_div ->
             t.act.alu_ops <- t.act.alu_ops + 1;
             d.ready_at <- t.now + fu_latency p d.uop.Trace.fu
           | Trace.FU_branch ->
             t.act.alu_ops <- t.act.alu_ops + 1;
             d.ready_at <- t.now + 1;
             (* resolution happens one cycle later *)
             if not d.wrong_path then begin
               if mispredicted d then begin
                 d.recovery_at <- t.now + p.Params.branch_resolve_latency;
                 push_recovery t ~at:d.recovery_at ~seq:d.seq
                   ~resume_idx:d.resume_idx ~include_self:false
               end
               else if d.trace_idx >= 0 && d.trace_idx < t.n_trace - 1
                       && Inject.fire t.inj Inject.Spurious_recovery
               then begin
                 (* fault: a correctly predicted branch resolves as
                    mispredicted, forcing a full squash-and-refetch
                    from its own fall-through point *)
                 d.recovery_at <- t.now + p.Params.branch_resolve_latency;
                 push_recovery t ~at:d.recovery_at ~seq:d.seq
                   ~resume_idx:(d.trace_idx + 1) ~include_self:false
               end
             end
           | Trace.FU_store ->
             t.act.agu_ops <- t.act.agu_ops + 1;
             d.ready_at <- t.now + 1;
             d.addr_known <- true;
             (* memory-order violation check against younger,
                already-executed loads at the same word *)
             if (not d.wrong_path) && d.uop.Trace.mem_addr <> 0 then begin
               let l = violating_load t d (d.uop.Trace.mem_addr lsr 2) in
               if l != t.dummy then begin
                 Memdep.train_violation t.memdep l.uop.Trace.pc;
                 l.recovery_at <- t.now + p.Params.branch_resolve_latency;
                 push_recovery t ~at:l.recovery_at ~seq:l.seq
                   ~resume_idx:l.trace_idx ~include_self:true
               end
             end
           | Trace.FU_load ->
             t.act.agu_ops <- t.act.agu_ops + 1;
             if d.wrong_path || d.uop.Trace.mem_addr = 0 then
               d.ready_at <- t.now + 1 + t.hier.Cache.l1d.Cache.hit_latency
             else begin
               let addr = d.uop.Trace.mem_addr in
               (* store-to-load forwarding from the youngest older
                  resolved store to the same word *)
               if forwarding_store t d (addr lsr 2) then
                 d.ready_at <- t.now + 2
               else begin
                 if Inject.fire t.inj Inject.Corrupt_cache_tag then
                   Cache.corrupt_tag t.hier.Cache.l1d
                     ~victim:
                       (Inject.draw t.inj
                          (Array.length t.hier.Cache.l1d.Cache.tags))
                     ~flip:(Inject.draw t.inj 256);
                 let lat = Cache.data_access t.hier addr in
                 d.ready_at <- t.now + 1 + lat;
                 (* cache-hit speculation: consumers woken for a hit
                    pay a replay penalty on a miss *)
                 if lat > p.Params.l1d.Params.hit_latency then
                   d.replay_bump <- 1
               end;
               d.executed_load <- true
             end);
          (* fault: a transiently slow functional unit *)
          if Inject.fire t.inj Inject.Stretch_fu_latency then
            d.ready_at <- d.ready_at + 1 + Inject.draw t.inj 8;
          schedule_wakeup t d
        end
      end
    end;
    if not d.issued then begin
      r.Ibuf.a.(!kept) <- r.Ibuf.a.(!i);
      incr kept
    end;
    incr i
  done;
  (* issue width exhausted: shift the unscanned tail down in place *)
  if !kept < !i then begin
    Array.blit r.Ibuf.a !i r.Ibuf.a !kept (n - !i);
    r.Ibuf.n <- n - (!i - !kept)
  end

(* ---------- dispatch (rename) ---------- *)

let dispatch t =
  let p = t.p in
  let q = t.fq in
  let budget = ref p.Params.fetch_width in
  let continue_ = ref true in
  let spadds_this_cycle = ref 0 in
  while !continue_ && !budget > 0 && q.Fq.len > 0 do
    let h = q.Fq.head in
    let uop = fq_uop t h in
    if q.Fq.at.(h) + p.Params.frontend_depth > t.now then continue_ := false
    else if t.now < t.rename_blocked_until then continue_ := false
    else if Ring.length t.rob >= p.Params.rob_entries then continue_ := false
    else if t.iq_n >= p.Params.scheduler_entries then continue_ := false
    else if uop.Trace.fu = Trace.FU_load
            && Ring.length t.ldq >= p.Params.ldq_entries then continue_ := false
    else if uop.Trace.fu = Trace.FU_store
            && Ring.length t.stq >= p.Params.stq_entries then continue_ := false
    else if (match p.Params.rename with
        | Params.Rmt _ | Params.Rmt_checkpoint _ ->
          uop.Trace.has_dest && t.free_regs <= 0
        | Params.Rp -> false)
    then continue_ := false
    else if is_ctrl uop && t.inflight_ctrl >= t.checkpoint_limit then begin
      t.checkpoint_stalls <- t.checkpoint_stalls + 1;
      continue_ := false
    end
    else if (not t.is_rmt) && uop.Trace.is_spadd
            && !spadds_this_cycle >= Params.spadd_per_cycle
    then begin t.spadd_stalls <- t.spadd_stalls + 1; continue_ := false end
    else begin
      let d = win_slot t q.Fq.seq.(h) in
      fill_fetched t d h uop;
      Fq.pop_front q;
      decr budget;
      (* operand determination *)
      if uop.Trace.is_spadd then incr spadds_this_cycle;
      if is_ctrl uop then t.inflight_ctrl <- t.inflight_ctrl + 1;
      (match p.Params.rename with
       | Params.Rmt _ | Params.Rmt_checkpoint _ ->
         let srcs = uop.Trace.srcs_reg in
         for k = 0 to Array.length srcs - 1 do
           let r = srcs.(k) in
           if r <> 0 then
             match t.rmt.(r) with -1 -> () | s -> add_producer d s
         done;
         t.act.rename_reads <- t.act.rename_reads + Array.length srcs + 1;
         d.ras_snapshot <- Branch_pred.Ras.save t.ras;
         if uop.Trace.has_dest && uop.Trace.dest_reg <> 0 then begin
           t.free_regs <- t.free_regs - 1;
           t.act.freelist_ops <- t.act.freelist_ops + 1;
           d.prev_map <- t.rmt.(uop.Trace.dest_reg);
           t.rmt.(uop.Trace.dest_reg) <- d.seq;
           t.act.rename_writes <- t.act.rename_writes + 1
         end
       | Params.Rp ->
         (* RP arithmetic keyed by distance; only still-in-flight
            producers are kept *)
         let srcs = uop.Trace.srcs_dist in
         for k = 0 to Array.length srcs - 1 do
           let dist = srcs.(k) in
           let s =
             if d.wrong_path then d.seq - dist
             else
               (* committed producers have left the stream window *)
               Window.seq t.uops (d.trace_idx - dist)
           in
           if win_mem t s then add_producer d s
         done;
         t.act.rp_ops <- t.act.rp_ops + Array.length srcs + 1;
         d.ras_snapshot <- Branch_pred.Ras.save t.ras);
      register_producers t d;
      if not d.wrong_path then Window.set_seq t.uops d.trace_idx d.seq;
      d.dispatched_at <- t.now;
      Ring.push_back t.rob d.seq;
      t.act.rob_writes <- t.act.rob_writes + 1;
      t.iq_n <- t.iq_n + 1;
      if d.n_unready = 0 then Ibuf.push t.ready d.seq;
      (match uop.Trace.fu with
       | Trace.FU_load -> Ring.push_back t.ldq d.seq
       | Trace.FU_store -> Ring.push_back t.stq d.seq
       | _ -> ())
    end
  done

(* ---------- fetch ---------- *)

(* a fetched instruction takes the next seq and joins the front-end
   queue: by stream index [idx], or by its [uop] on the wrong path *)
let fetch_push t ~idx ~uop =
  Fq.push t.fq ~seq:t.next_seq ~idx ~uop ~at:t.now;
  t.next_seq <- t.next_seq + 1

let fetch t =
  let p = t.p in
  if t.now >= t.fetch_stall_until then begin
    let budget = ref p.Params.fetch_width in
    let continue_ = ref true in
    let line_touched = ref (-1) in
    while !continue_ && !budget > 0 do
      match t.mode with
      | Fetch_stalled -> continue_ := false
      | Fetch_correct ->
        let idx = t.fetch_at in
        if idx >= t.n_trace then continue_ := false
        else begin
          let uop = Window.get t.uops idx in
          (* instruction cache: one probe per line per group *)
          let line = uop.Trace.pc lsr t.hier.Cache.l1i.Cache.line_shift in
          if line <> !line_touched then begin
            line_touched := line;
            if Inject.fire t.inj Inject.Corrupt_cache_tag then
              Cache.corrupt_tag t.hier.Cache.l1i
                ~victim:
                  (Inject.draw t.inj (Array.length t.hier.Cache.l1i.Cache.tags))
                ~flip:(Inject.draw t.inj 256);
            let lat = Cache.inst_access t.hier uop.Trace.pc in
            if lat > 0 then begin
              t.fetch_stall_until <- t.now + lat;
              continue_ := false
            end
          end;
          if !continue_ then begin
            fetch_push t ~idx ~uop;
            decr budget;
            (match uop.Trace.ctrl with
             | Trace.Not_ctrl -> t.fetch_at <- idx + 1
             | Trace.Cond { taken; target } ->
               let predicted = t.pred.Branch_pred.predict uop.Trace.pc in
               (* train at fetch with the oracle outcome: models perfect
                  speculative-history repair (see DESIGN.md) *)
               t.pred.Branch_pred.update uop.Trace.pc taken;
               (* fault: a bit flip in the predictor output *)
               let predicted =
                 if Inject.fire t.inj Inject.Flip_prediction then not predicted
                 else predicted
               in
               if p.Params.ideal_recovery || predicted = taken then begin
                 t.fetch_at <- idx + 1;
                 if taken then continue_ := false (* group ends *)
               end
               else begin
                 t.branch_misp <- t.branch_misp + 1;
                 Fq.mispredict t.fq (idx + 1);
                 fetch_wrong t (if predicted then target else uop.Trace.pc + 4);
                 continue_ := false
               end
             | Trace.Uncond { target; is_call; is_ret } ->
               if is_call then
                 Branch_pred.Ras.push t.ras (uop.Trace.pc + 4);
               if is_ret then begin
                 let predicted = Branch_pred.Ras.pop t.ras in
                 if p.Params.ideal_recovery
                    || (predicted <> Branch_pred.Ras.empty
                        && predicted = target)
                 then
                   t.fetch_at <- idx + 1
                 else begin
                   t.ret_misp <- t.ret_misp + 1;
                   Fq.mispredict t.fq (idx + 1);
                   t.mode <- Fetch_stalled
                 end
               end
               else t.fetch_at <- idx + 1;
               continue_ := false (* taken transfer ends the group *))
          end
        end
      | Fetch_wrong ->
        let pc = t.fetch_at in
        (match t.decode_static pc with
         | None -> t.mode <- Fetch_stalled; continue_ := false
         | Some uop ->
           let line = pc lsr t.hier.Cache.l1i.Cache.line_shift in
           if line <> !line_touched then begin
             line_touched := line;
             let lat = Cache.inst_access t.hier pc in
             if lat > 0 then begin
               t.fetch_stall_until <- t.now + lat;
               continue_ := false
             end
           end;
           if !continue_ then begin
             fetch_push t ~idx:(-1) ~uop;
             t.wrong_fetched <- t.wrong_fetched + 1;
             decr budget;
             (match uop.Trace.ctrl with
              | Trace.Not_ctrl -> t.fetch_at <- pc + 4
              | Trace.Cond { target; _ } ->
                let predicted = t.pred.Branch_pred.predict pc in
                if predicted then begin
                  t.fetch_at <- target;
                  continue_ := false
                end
                else t.fetch_at <- pc + 4
              | Trace.Uncond { target; is_call; is_ret } ->
                if is_call then Branch_pred.Ras.push t.ras (pc + 4);
                if is_ret || target < 0 then begin
                  let tgt = Branch_pred.Ras.pop t.ras in
                  if tgt = Branch_pred.Ras.empty then t.mode <- Fetch_stalled
                  else t.fetch_at <- tgt
                end
                else t.fetch_at <- target;
                continue_ := false)
           end)
    done
  end

(* ---------- CPI-stack classification ---------- *)
(* One bucket per cycle, judged at the head of the window after commit
   and issue have run (see Stats and EXPERIMENTS.md for the
   heuristics).  Observability only: no effect on simulated timing. *)
let in_flight_load t s =
  s <> no_producer && (win_get t s).uop.Trace.fu = Trace.FU_load

let classify_cycle t : Stats.bucket =
  if t.commits_now > 0 then Stats.Base
  else if not (Ring.is_empty t.rob) then begin
    let d = rob_get t 0 in
    if d.recovery_at >= 0 && t.now < d.recovery_at then Stats.Branch_squash
    else if d.issued then
      (match d.uop.Trace.fu with
       | Trace.FU_load | Trace.FU_store -> Stats.Memory
       | _ -> Stats.Base)
    else if d.n_unready > 0 then begin
      (* a dependence stall: charge memory when waiting (directly) on
         an in-flight load, otherwise count it against base ILP *)
      if in_flight_load t d.prod0 || in_flight_load t d.prod1 then
        Stats.Memory
      else Stats.Base
    end
    else Stats.Structural
  end
  else if t.fq.Fq.len > 0 then
    (if t.now < t.redirect_until then Stats.Branch_squash else Stats.Frontend)
  else if t.now < t.redirect_until then Stats.Branch_squash
  else Stats.Frontend

(* ---------- watchdog diagnostics ---------- *)

let fu_name = function
  | Trace.FU_alu -> "alu" | Trace.FU_mul -> "mul" | Trace.FU_div -> "div"
  | Trace.FU_branch -> "br" | Trace.FU_load -> "ld" | Trace.FU_store -> "st"

let diag_context t reason =
  let i = string_of_int in
  let base =
    [ ("reason", reason);
      ("cycle", i t.now);
      ("committed", i t.committed);
      ("trace_length", i t.n_trace);
      ("rob_occupancy", i (Ring.length t.rob));
      ("iq_occupancy", i t.iq_n);
      ("ldq_occupancy", i (Ring.length t.ldq));
      ("stq_occupancy", i (Ring.length t.stq));
      ("frontend_occupancy", i t.fq.Fq.len);
      ("free_regs", if t.is_rmt then i t.free_regs else "n/a");
      ("fetch_mode",
       (match t.mode with
        | Fetch_correct -> Printf.sprintf "correct@%d" t.fetch_at
        | Fetch_wrong -> Printf.sprintf "wrong@0x%x" t.fetch_at
        | Fetch_stalled -> "stalled"));
      ("fetch_stall_until", i t.fetch_stall_until);
      ("rename_blocked_until", i t.rename_blocked_until);
      ("pending_recoveries", i (t.recoveries.Ibuf.n / 4));
      ("faults_injected", i (Inject.total t.inj));
      ("last_commits",
       if t.lc_n = 0 then "none"
       else begin
         let k = min t.lc_n 8 in
         String.concat ","
           (List.init k (fun j ->
                let idx = (t.lc_n - k + j) land 7 in
                Printf.sprintf "%d:0x%x" t.lc_idx.(idx) t.lc_pc.(idx)))
       end) ]
  in
  let head =
    if not (Ring.is_empty t.rob) then
      let d = rob_get t 0 in
      [ ("stuck_at", "rob_head");
        ("head_seq", i d.seq);
        ("head_pc", Printf.sprintf "0x%x" d.uop.Trace.pc);
        ("head_fu", fu_name d.uop.Trace.fu);
        ("head_wrong_path", string_of_bool d.wrong_path);
        ("head_trace_idx", i d.trace_idx);
        ("head_issued", string_of_bool d.issued);
        ("head_ready_at", i d.ready_at);
        ("head_recovery_at", i d.recovery_at);
        ("head_producers",
         if d.prod0 = no_producer then "none"
         else
           String.concat ","
             (List.map
                (fun s ->
                   Printf.sprintf "%d%s" s
                     (if win_mem t s then "(inflight)" else ""))
                (producers d))) ]
    else if t.fq.Fq.len > 0 then
      let h = t.fq.Fq.head in
      let u = fq_uop t h in
      [ ("stuck_at", "frontend_head");
        ("head_seq", i t.fq.Fq.seq.(h));
        ("head_pc", Printf.sprintf "0x%x" u.Trace.pc);
        ("head_fu", fu_name u.Trace.fu) ]
    else [ ("stuck_at", "fetch") ]
  in
  base @ head

(* ---------- stepping ---------- *)

(* Process the recovery events due this cycle, oldest faulting seq
   first and, for one seq, the latest pushed first.  Each is taken out
   of [t.recoveries] before it runs; [do_recovery] pushes none. *)
let process_recoveries t =
  let r = t.recoveries in
  let more = ref true in
  while !more do
    let best = ref (-1) and i = ref 0 in
    while !i < r.Ibuf.n do
      if r.Ibuf.a.(!i) <= t.now
         && (!best < 0 || r.Ibuf.a.(!i + 1) <= r.Ibuf.a.(!best + 1))
      then best := !i;
      i := !i + 4
    done;
    if !best < 0 then more := false
    else begin
      let b = !best in
      let seqno = r.Ibuf.a.(b + 1) and resume_idx = r.Ibuf.a.(b + 2)
      and include_self = r.Ibuf.a.(b + 3) = 1 in
      Array.blit r.Ibuf.a (b + 4) r.Ibuf.a b (r.Ibuf.n - b - 4);
      r.Ibuf.n <- r.Ibuf.n - 4;
      let d = win_get t seqno in
      if d != t.dummy then do_recovery t ~faulting:d ~resume_idx ~include_self
      (* otherwise: already squashed by an older recovery *)
    end
  done

(* One simulated cycle.  Raises [Diag.Error Sim_deadlock] at the cycle
   boundary (before any state for the cycle is touched), so a caller
   catching the watchdog sees a consistent, checkpointable engine. *)
let step t =
  if t.now > t.max_cycles then
    Diag.error ~context:(diag_context t "cycle-budget") Diag.Sim_deadlock
      "simulation did not converge: %d cycles elapsed, %d/%d committed"
      t.now t.committed t.n_trace;
  if t.now - t.last_commit_cycle > watchdog_limit then
    Diag.error ~context:(diag_context t "no-forward-progress") Diag.Sim_deadlock
      "pipeline deadlock: no commit for %d cycles (cycle %d, %d/%d \
       committed)"
      (t.now - t.last_commit_cycle) t.now t.committed t.n_trace;
  drain_wheel t;
  if t.recoveries.Ibuf.n > 0 then process_recoveries t;
  t.commits_now <- 0;
  commit t;
  issue t;
  Stats.charge t.cpi (classify_cycle t);
  dispatch t;
  fetch t;
  t.now <- t.now + 1

let finished t = t.done_
let cycle t = t.now
let committed_count t = t.committed
let window t = t.uops
let inflight t = Ring.length t.rob + t.fq.Fq.len

let wrong_path_inflight t =
  let n = ref 0 in
  for i = 0 to Ring.length t.rob - 1 do
    if (rob_get t i).wrong_path then incr n
  done;
  for i = 0 to t.fq.Fq.len - 1 do
    if t.fq.Fq.idx.(Fq.slot t.fq i) < 0 then incr n
  done;
  !n

(* Mid-run snapshot of the cycle-accounting buckets; the interval
   sampler subtracts the snapshot taken at the warmup boundary from the
   final stack to measure only the interval proper. *)
let cpi_now t = Stats.freeze t.cpi

let finish t : stats =
  (match t.checker with
   | Some ck ->
     Checker.on_finish ck ~cycles:t.now ~committed:t.committed
       ~free_regs:t.free_regs
   | None -> ());
  { cycles = t.now;
    committed = t.committed;
    wrong_path_fetched = t.wrong_fetched;
    branch_mispredicts = t.branch_misp;
    return_mispredicts = t.ret_misp;
    memdep_violations = t.memdep.Memdep.violations;
    walk_stall_cycles = t.walk_stalls;
    spadd_stall_slots = t.spadd_stalls;
    checkpoint_stall_slots = t.checkpoint_stalls;
    l1i_misses = t.hier.Cache.l1i.Cache.misses;
    l1d_misses = t.hier.Cache.l1d.Cache.misses;
    l1d_accesses = t.hier.Cache.l1d.Cache.accesses;
    mix =
      (let acc = ref [] in
       for i = 5 downto 0 do
         if t.mix_counts.(i) > 0 then
           acc := (mix_labels.(i), t.mix_counts.(i)) :: !acc
       done;
       !acc);
    activity = t.act;
    ipc = float_of_int t.committed /. float_of_int (max 1 t.now);
    faults_injected = Inject.total t.inj;
    commits_checked =
      (match t.checker with Some ck -> Checker.commits_checked ck | None -> 0);
    cpi_stack = Stats.freeze t.cpi }

(* [run p ~window ~decode_static ?checker ()] simulates the whole stream
   and returns timing statistics.  [decode_static pc] supplies wrong-path
   instructions.  [checker] is the lockstep golden-model checker, fed at
   every commit.  Faults from [p.inject] are injected at fetch/issue
   opportunities; a deadlock or lack of forward progress trips the
   watchdog, which raises [Diag.Error Sim_deadlock] carrying a full
   machine-readable pipeline snapshot. *)
let run (p : Params.t) ~(window : Window.t)
    ~(decode_static : int -> Trace.uop option)
    ?(checker : Checker.t option) () : stats =
  let t = create p ~window ~decode_static ?checker () in
  while not t.done_ do step t done;
  finish t

(* ---------- checkpointing ---------- *)

(* Binary image of the live engine.  Serialization-safety invariants the
   format relies on (all consequences of suffix-only squash and
   monotonic, never-reused sequence numbers):

   - every in-flight instruction is in the ROB (a live record) or the
     front-end queue (columns), never both; the image writes both as
     dyns, a front-end entry with a fetched dyn's defaults in every
     field dispatch sets;
   - the issue queue is the ROB's unissued entries and ldq/stq are
     subsets of the ROB, all serialized as seq lists;
   - a live producer's waiters name live consumers or squashed ones
     (whose counters are dead state), so only live ones are written;
   - timing-wheel slots may name squashed or committed producers, but
     the first had only consumers squashed with them and the second
     woke theirs at commit, so only live ones are written;
   - waiters and wheel slots are written newest first, and the
     recovery events likewise;
   - the stream window starts at the committed count (every older uop
     has committed), and its dispatch seqs are rebuilt from the ROB's
     correct-path entries: a seq the image does not restore belonged to
     a squashed or committed instruction, which the [win_mem] guard
     treats exactly like [-1];
   - an RMT model's previous mappings are rebuilt from the ROB's rename
     order: a register's oldest in-flight writer gets -1, standing for
     whatever had left the window, which a squash maps to -1 anyway;
   - correct-path uops are regenerated through the window and stored by
     index; a wrong-path uop is [decode_static pc], its only source, so
     it is stored as its pc and re-derived on restore;
   - the window capacity is written and range-checked on restore but
     sizes nothing: restore places the ROB's records through
     [win_slot], growing the window as dispatch does, and timing does
     not depend on its size. *)

(* v2: the checker cursor carries the golden next pc; v3: wrong-path
   uops are stored by pc *)
let engine_version = 3

(* the live seqs of [buf], newest first *)
let w_live_seqs t b (buf : Ibuf.t) =
  let n = ref 0 in
  for i = 0 to buf.Ibuf.n - 1 do
    if win_mem t buf.Ibuf.a.(i) then incr n
  done;
  Bin.w_int b !n;
  for i = buf.Ibuf.n - 1 downto 0 do
    if win_mem t buf.Ibuf.a.(i) then Bin.w_int b buf.Ibuf.a.(i)
  done

(* refill [buf] from seqs read newest first *)
let fill_seqs (buf : Ibuf.t) seqs = List.iter (Ibuf.push buf) (List.rev seqs)

let w_dyn t b ~dispatched (d : dyn) =
  Bin.w_int b d.seq;
  Bin.w_bool b d.wrong_path;
  Bin.w_int b d.trace_idx;
  if d.trace_idx < 0 then Bin.w_int b d.uop.Trace.pc;
  Bin.w_int b d.fetched_at;
  Bin.w_list b Bin.w_int (producers d);
  Bin.w_bool b dispatched;
  Bin.w_int b d.dispatched_at;
  Bin.w_bool b d.issued;
  Bin.w_int b d.ready_at;
  Bin.w_int b d.replay_bump;
  Bin.w_bool b (mispredicted d);
  Bin.w_int b d.resume_idx;
  Bin.w_bool b d.addr_known;
  Bin.w_bool b d.executed_load;
  Bin.w_int b d.recovery_at;
  Bin.w_int b d.ras_snapshot;
  Bin.w_int b d.n_unready;
  w_live_seqs t b d.waiters

(* first pass: read one dyn into [into seq], the record its caller picks
   for it, and return its waiter seqs, which are resolved in a second
   pass once every live record is back in the window *)
let r_dyn t r ~dispatched ~(into : int -> dyn) : dyn * int list =
  let seq = Bin.r_int r in
  let d = into seq in
  d.seq <- seq;
  d.wrong_path <- Bin.r_bool r;
  d.trace_idx <- Bin.r_int r;
  d.uop <-
    (if d.trace_idx < 0 then begin
        let pc = Bin.r_int r in
        match t.decode_static pc with
        | Some u -> u
        | None ->
          Bin.corrupt "wrong-path pc 0x%x has no static instruction" pc
      end
     else if d.trace_idx >= Window.base t.uops && d.trace_idx < t.n_trace then
       Window.get t.uops d.trace_idx
     else
       Bin.corrupt "dyn trace index %d outside the uncommitted stream [%d, %d)"
         d.trace_idx (Window.base t.uops) t.n_trace);
  if d.wrong_path <> (d.trace_idx < 0) then
    Bin.corrupt "dyn %d: wrong-path flag disagrees with trace index %d" seq
      d.trace_idx;
  d.fetched_at <- Bin.r_int r;
  (match Bin.r_list r Bin.r_int with
   | ([] | [ _ ] | [ _; _ ]) as ps ->
     d.prod0 <- no_producer;
     d.prod1 <- no_producer;
     List.iter (add_producer d) ps
   | ps -> Bin.corrupt "dyn %d names %d producers" d.seq (List.length ps));
  if Bin.r_bool r <> dispatched then
    Bin.corrupt "dyn %d: dispatch flag disagrees with its queue" seq;
  d.dispatched_at <- Bin.r_int r;
  d.issued <- Bin.r_bool r;
  d.ready_at <- Bin.r_int r;
  d.replay_bump <- Bin.r_int r;
  let flag = Bin.r_bool r in
  d.resume_idx <- Bin.r_int r;
  if flag <> mispredicted d then
    Bin.corrupt "dyn %d: misprediction flag disagrees with resume index %d"
      seq d.resume_idx;
  d.addr_known <- Bin.r_bool r;
  d.executed_load <- Bin.r_bool r;
  d.recovery_at <- Bin.r_int r;
  d.ras_snapshot <- Bin.r_int r;
  d.n_unready <- Bin.r_int r;
  Ibuf.clear d.waiters;
  (d, Bin.r_list r Bin.r_int)

let save b t =
  Bin.w_int b engine_version;
  Bin.w_int b t.n_trace;
  (* scalar state *)
  Bin.w_int b t.next_seq;
  Bin.w_int b t.now;
  Bin.w_bool b t.done_;
  Bin.w_int b t.committed;
  Bin.w_int b t.commits_now;
  Bin.w_int b t.wrong_fetched;
  Bin.w_int b t.branch_misp;
  Bin.w_int b t.ret_misp;
  Bin.w_int b t.walk_stalls;
  Bin.w_int b t.spadd_stalls;
  Bin.w_int b t.checkpoint_stalls;
  Bin.w_int b t.inflight_ctrl;
  Bin.w_int b t.rename_blocked_until;
  Bin.w_int b t.fetch_stall_until;
  Bin.w_int b t.redirect_until;
  Bin.w_int b t.last_commit_cycle;
  Bin.w_int b t.lc_n;
  Bin.w_int b t.free_regs;
  Bin.w_int_array b t.lc_idx;
  Bin.w_int_array b t.lc_pc;
  Bin.w_int_array b t.mix_counts;
  (match t.mode with
   | Fetch_correct -> Bin.w_int b 0; Bin.w_int b t.fetch_at
   | Fetch_wrong -> Bin.w_int b 1; Bin.w_int b t.fetch_at
   | Fetch_stalled -> Bin.w_int b 2);
  Bin.w_int_array b t.rmt;
  (* window capacity: checked on restore, which sizes the window by the
     ROB it places *)
  Bin.w_int b (Array.length t.win);
  (* every in-flight instruction: ROB (dispatched) then front-end queue
     (fetched) *)
  let rob_n = Ring.length t.rob in
  Bin.w_int b rob_n;
  for i = 0 to rob_n - 1 do w_dyn t b ~dispatched:true (rob_get t i) done;
  let q = t.fq and fetched = fresh_dyn () in
  Bin.w_int b q.Fq.len;
  for i = 0 to q.Fq.len - 1 do
    let c = Fq.slot q i in
    fill_fetched t fetched c (fq_uop t c);
    w_dyn t b ~dispatched:false fetched
  done;
  (* ROB-subset structures as seq lists *)
  Bin.w_int b t.iq_n;
  for i = 0 to rob_n - 1 do
    let d = rob_get t i in
    if not d.issued then Bin.w_int b d.seq
  done;
  let w_ring ring =
    Bin.w_int b (Ring.length ring);
    for i = 0 to Ring.length ring - 1 do Bin.w_int b (Ring.get ring i) done
  in
  w_ring t.ldq;
  w_ring t.stq;
  (* timing wheel: per-slot live seqs (dead producers have only dead
     consumers, so they are dropped) *)
  Bin.w_int b (Array.length t.wheel);
  Array.iter (w_live_seqs t b) t.wheel;
  let r = t.recoveries in
  Bin.w_int b (r.Ibuf.n / 4);
  for e = (r.Ibuf.n / 4) - 1 downto 0 do
    Bin.w_int b r.Ibuf.a.(4 * e);
    Bin.w_int b r.Ibuf.a.((4 * e) + 1);
    Bin.w_int b r.Ibuf.a.((4 * e) + 2);
    Bin.w_bool b (r.Ibuf.a.((4 * e) + 3) = 1)
  done;
  (* sub-components *)
  t.pred.Branch_pred.save b;
  Branch_pred.Ras.save_full b t.ras;
  Memdep.save b t.memdep;
  Inject.save b t.inj;
  Cache.save_hierarchy b t.hier;
  Stats.save_acc b t.cpi;
  List.iter (fun (_, get, _) -> Bin.w_int b (get t.act)) activity_fields;
  (match t.checker with
   | None -> Bin.w_bool b false
   | Some ck -> Bin.w_bool b true; Checker.save b ck)

let load (r : Bin.reader) (t : t) : unit =
  let v = Bin.r_int r in
  if v <> engine_version then
    Bin.corrupt "engine image version %d, this build reads %d" v
      engine_version;
  let n = Bin.r_int r in
  if n <> t.n_trace then
    Bin.corrupt "engine image covers a %d-uop trace, workload regenerated \
                 %d uops" n t.n_trace;
  t.next_seq <- Bin.r_int r;
  t.now <- Bin.r_int r;
  t.done_ <- Bin.r_bool r;
  t.committed <- Bin.r_int r;
  if t.committed < 0 || t.committed > t.n_trace then
    Bin.corrupt "engine image committed %d of a %d-uop stream" t.committed
      t.n_trace;
  (* every uop below the committed count has left the window *)
  Window.seek t.uops t.committed;
  t.commits_now <- Bin.r_int r;
  t.wrong_fetched <- Bin.r_int r;
  t.branch_misp <- Bin.r_int r;
  t.ret_misp <- Bin.r_int r;
  t.walk_stalls <- Bin.r_int r;
  t.spadd_stalls <- Bin.r_int r;
  t.checkpoint_stalls <- Bin.r_int r;
  t.inflight_ctrl <- Bin.r_int r;
  t.rename_blocked_until <- Bin.r_int r;
  t.fetch_stall_until <- Bin.r_int r;
  t.redirect_until <- Bin.r_int r;
  t.last_commit_cycle <- Bin.r_int r;
  t.lc_n <- Bin.r_int r;
  t.free_regs <- Bin.r_int r;
  Bin.r_int_array_into r t.lc_idx;
  Bin.r_int_array_into r t.lc_pc;
  Bin.r_int_array_into r t.mix_counts;
  (match Bin.r_int r with
   | 0 ->
     let idx = Bin.r_int r in
     (* fetch resumes at or past the committed count *)
     if idx < t.committed || idx > t.n_trace then
       Bin.corrupt "fetch index %d outside [%d, %d]" idx t.committed
         t.n_trace;
     fetch_correct t idx
   | 1 -> fetch_wrong t (Bin.r_int r)
   | 2 -> t.mode <- Fetch_stalled
   | n -> Bin.corrupt "bad fetch-mode tag %d" n);
  Bin.r_int_array_into r t.rmt;
  (* the saved capacity is checked but sizes nothing: the ROB records
     below take their slots through [win_slot], which grows the window
     as dispatch does, so the image's own window (or a forged varint)
     allocates no record the restored run does not hold *)
  let win_cap = Bin.r_int r in
  if win_cap < 1 || win_cap land (win_cap - 1) <> 0 then
    Bin.corrupt "bad window capacity %d" win_cap;
  (* pass 1: rebuild every ROB record in its window slot, and the
     front-end queue's columns *)
  let rob =
    Bin.r_list r (fun r ->
        let ((d, _) as entry) =
          r_dyn t r ~dispatched:true ~into:(fun s ->
              if s < 0 || win_mem t s then
                Bin.corrupt "bad or repeated seq %d in engine image" s;
              win_slot t s)
        in
        Ring.push_back t.rob d.seq;
        entry)
  in
  let fetched = fresh_dyn () in
  ignore
    (Bin.r_list r (fun r ->
         let d, waiters =
           r_dyn t r ~dispatched:false ~into:(fun _ -> fetched)
         in
         if waiters <> [] then
           Bin.corrupt "front-end entry %d has waiters" d.seq;
         Fq.push t.fq ~seq:d.seq ~idx:d.trace_idx ~uop:d.uop ~at:d.fetched_at;
         if mispredicted d then Fq.mispredict t.fq d.resume_idx));
  (* seq -> live record; a dangling reference means a corrupt image *)
  let live s =
    let d = win_get t s in
    if d == t.dummy then
      Bin.corrupt "dangling seq %d in engine image" s;
    d
  in
  let live_seqs seqs = List.iter (fun s -> ignore (live s)) seqs; seqs in
  (* pass 2: every waiter must be live *)
  List.iter
    (fun (d, waiter_seqs) -> fill_seqs d.waiters (live_seqs waiter_seqs))
    rob;
  (* the issue queue is exactly the ROB's unissued entries *)
  let iq = Bin.r_list r Bin.r_int in
  let unissued =
    List.filter_map (fun (d, _) -> if d.issued then None else Some d.seq) rob
  in
  if iq <> unissued then
    Bin.corrupt "issue queue differs from the ROB's unissued entries";
  t.iq_n <- List.length iq;
  List.iter
    (fun s -> if (live s).n_unready = 0 then Ibuf.push t.ready s)
    iq;
  let read_seq_ring ring =
    List.iter (fun s -> ignore (live s); Ring.push_back ring s)
      (Bin.r_list r Bin.r_int)
  in
  read_seq_ring t.ldq;
  read_seq_ring t.stq;
  let wheel_n = Bin.r_int r in
  if wheel_n <> Array.length t.wheel then
    Bin.corrupt "timing wheel of %d slots, configuration builds %d" wheel_n
      (Array.length t.wheel);
  for i = 0 to wheel_n - 1 do
    fill_seqs t.wheel.(i) (live_seqs (Bin.r_list r Bin.r_int))
  done;
  List.iter
    (fun (at, seq, resume_idx, include_self) ->
       push_recovery t ~at ~seq ~resume_idx ~include_self)
    (List.rev
       (Bin.r_list r (fun r ->
            let c = Bin.r_int r in
            let s = Bin.r_int r in
            let ri = Bin.r_int r in
            let inc = Bin.r_bool r in
            (c, s, ri, inc))));
  (* dispatch seqs: sparse rebuild from the ROB's correct-path entries;
     missing entries behave exactly like stale ones behind the win_mem
     guard.  Previous mappings: replay the ROB's renames in order. *)
  let mapped = Array.make 32 (-1) in
  List.iter
    (fun (d, _) ->
       if not d.wrong_path then Window.set_seq t.uops d.trace_idx d.seq;
       if t.is_rmt && d.uop.Trace.has_dest && d.uop.Trace.dest_reg <> 0
       then begin
         d.prev_map <- mapped.(d.uop.Trace.dest_reg);
         mapped.(d.uop.Trace.dest_reg) <- d.seq
       end)
    rob;
  t.pred.Branch_pred.load r;
  Branch_pred.Ras.load_full r t.ras;
  Memdep.load r t.memdep;
  Inject.load r t.inj;
  Cache.load_hierarchy r t.hier;
  Stats.load_acc r t.cpi;
  List.iter (fun (_, _, set) -> set t.act (Bin.r_int r)) activity_fields;
  let had_checker = Bin.r_bool r in
  (match had_checker, t.checker with
   | true, Some ck -> Checker.load r ck
   | false, None -> ()
   | true, None ->
     Bin.corrupt
       "checkpoint was taken with lockstep checking on; restore requires a \
        checker"
   | false, Some _ ->
     Bin.corrupt
       "checkpoint was taken without lockstep checking; restore must not \
        add a checker")
