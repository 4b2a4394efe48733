(* Lockstep golden-model checker: validates commit-stream invariants
   against the ISS retirement stream and reports divergence as a
   structured Diag.Error instead of a crash.  See the interface for the
   invariant list. *)

module Trace = Iss.Trace

type t = {
  retired : int;                   (* golden retirement count *)
  rename : Params.rename_model;
  max_dist : int option;
  phys_regs : int option;          (* RMT models only *)
  mutable last_trace_idx : int;    (* last correct-path index committed *)
  mutable last_seq : int;
  mutable last_cycle : int;
  mutable checked : int;
  mutable next_pc : int;
      (* where the golden run continues after the last correct-path
         commit; -1 before the first (a region or slice may start
         anywhere) *)
}

let create ?max_dist ~rename ~retired () =
  let phys_regs =
    match rename with
    | Params.Rmt { phys_regs } | Params.Rmt_checkpoint { phys_regs; _ } ->
      Some phys_regs
    | Params.Rp -> None
  in
  { retired; rename;
    max_dist = (match rename with Params.Rp -> max_dist | _ -> None);
    phys_regs;
    last_trace_idx = -1;
    last_seq = -1;
    last_cycle = 0;
    checked = 0;
    next_pc = -1 }

(* the pc the golden run executes after [u] retires *)
let successor_pc (u : Trace.uop) =
  match u.Trace.ctrl with
  | Trace.Not_ctrl -> u.Trace.pc + 4
  | Trace.Cond { taken; target } -> if taken then target else u.Trace.pc + 4
  | Trace.Uncond { target; _ } -> target

let fu_name = function
  | Trace.FU_alu -> "alu" | Trace.FU_mul -> "mul" | Trace.FU_div -> "div"
  | Trace.FU_branch -> "br" | Trace.FU_load -> "ld" | Trace.FU_store -> "st"

let diverge t ~invariant ~cycle ~seq ~trace_idx fmt =
  Format.kasprintf
    (fun msg ->
       raise
         (Diag.Error
            (Diag.make
               ~context:
                 [ ("invariant", invariant);
                   ("cycle", string_of_int cycle);
                   ("seq", string_of_int seq);
                   ("trace_idx", string_of_int trace_idx);
                   ("last_trace_idx", string_of_int t.last_trace_idx);
                   ("commits_checked", string_of_int t.checked) ]
               Diag.Checker_divergence msg)))
    fmt

(* Every check names its failure in full rather than through a local
   [fail] closure: this runs at every commit, and a closure would be
   allocated each time. *)
let on_commit t ~cycle ~seq ~trace_idx ~wrong_path ~free_regs ~golden uop =
  (* ROB FIFO discipline: seq strictly increasing, cycle nondecreasing *)
  if seq <= t.last_seq then
    diverge t ~invariant:"rob-fifo" ~cycle ~seq ~trace_idx
      "commit seq %d not younger than previous %d" seq t.last_seq;
  if cycle < t.last_cycle then
    diverge t ~invariant:"commit-cycle-monotone" ~cycle ~seq ~trace_idx
      "commit at cycle %d after cycle %d" cycle t.last_cycle;
  if wrong_path then begin
    if trace_idx >= 0 then
      diverge t ~invariant:"wrong-path-untraced" ~cycle ~seq ~trace_idx
        "wrong-path commit carries trace index %d" trace_idx
  end
  else begin
    (* program-order, exactly-once retirement *)
    if trace_idx <> t.last_trace_idx + 1 then
      diverge t ~invariant:"program-order" ~cycle ~seq ~trace_idx
        "committed trace index %d, expected %d" trace_idx
        (t.last_trace_idx + 1);
    if trace_idx < 0 || trace_idx >= t.retired then
      diverge t ~invariant:"trace-bounds" ~cycle ~seq ~trace_idx
        "trace index %d outside [0, %d)" trace_idx t.retired;
    (* golden lockstep: the retired uop is the stream's entry at its
       index, and it sits where the golden run went after the previous
       commit *)
    if t.next_pc >= 0 && uop.Trace.pc <> t.next_pc then
      diverge t ~invariant:"pc-lockstep" ~cycle ~seq ~trace_idx
        "retired pc 0x%x, golden model continues at 0x%x" uop.Trace.pc
        t.next_pc;
    if uop.Trace.pc <> golden.Trace.pc then
      diverge t ~invariant:"pc-lockstep" ~cycle ~seq ~trace_idx
        "retired pc 0x%x, golden model has 0x%x" uop.Trace.pc
        golden.Trace.pc;
    if uop.Trace.fu <> golden.Trace.fu then
      diverge t ~invariant:"fu-lockstep" ~cycle ~seq ~trace_idx
        "retired fu %s, golden model has %s" (fu_name uop.Trace.fu)
        (fu_name golden.Trace.fu);
    (match t.rename with
     | Params.Rp ->
       (* STRAIGHT: write-once (every instruction produces exactly one
          fresh register) and the bounded distance window *)
       if not uop.Trace.has_dest then
         diverge t ~invariant:"write-once" ~cycle ~seq ~trace_idx
           "STRAIGHT uop at 0x%x retires without a destination" uop.Trace.pc;
       if Array.length uop.Trace.srcs_reg <> 0 then
         diverge t ~invariant:"isa-shape" ~cycle ~seq ~trace_idx
           "STRAIGHT uop at 0x%x carries register operands" uop.Trace.pc;
       (match t.max_dist with
        | None -> ()
        | Some md ->
          let srcs = uop.Trace.srcs_dist in
          for k = 0 to Array.length srcs - 1 do
            let d = srcs.(k) in
            if d < 1 || d > md then
              diverge t ~invariant:"max-dist" ~cycle ~seq ~trace_idx
                "source distance %d at 0x%x outside [1, %d]" d uop.Trace.pc md
          done)
     | Params.Rmt _ | Params.Rmt_checkpoint _ ->
       if Array.length uop.Trace.srcs_dist <> 0 then
         diverge t ~invariant:"isa-shape" ~cycle ~seq ~trace_idx
           "RISC-V uop at 0x%x carries distance operands" uop.Trace.pc;
       if uop.Trace.dest_reg < 0 || uop.Trace.dest_reg > 31 then
         diverge t ~invariant:"rmt-range" ~cycle ~seq ~trace_idx
           "destination register x%d out of range" uop.Trace.dest_reg;
       if uop.Trace.has_dest <> (uop.Trace.dest_reg <> 0) then
         diverge t ~invariant:"rmt-dest" ~cycle ~seq ~trace_idx
           "has_dest inconsistent with dest x%d at 0x%x" uop.Trace.dest_reg
           uop.Trace.pc);
    t.last_trace_idx <- trace_idx;
    t.next_pc <- successor_pc uop
  end;
  (* free-list accounting is global: wrong-path drains release too *)
  (match t.phys_regs with
   | Some phys ->
     if free_regs < 0 || free_regs > phys - 32 then
       diverge t ~invariant:"free-list" ~cycle ~seq ~trace_idx
         "free physical registers %d outside [0, %d]" free_regs (phys - 32)
   | None -> ());
  t.last_seq <- seq;
  t.last_cycle <- cycle;
  t.checked <- t.checked + 1

let on_finish t ~cycles ~committed ~free_regs =
  let n = t.retired in
  let fail invariant fmt =
    diverge t ~invariant ~cycle:cycles ~seq:t.last_seq
      ~trace_idx:t.last_trace_idx fmt
  in
  if committed <> n then
    fail "exactly-once" "committed %d instructions, golden run retired %d"
      committed n;
  if t.last_trace_idx <> n - 1 then
    fail "exactly-once" "last committed trace index %d, expected %d"
      t.last_trace_idx (n - 1);
  match t.phys_regs with
  | Some phys ->
    if free_regs <> phys - 32 then
      fail "free-list"
        "free list not whole after drain: %d free, expected %d (leak or \
         double free)" free_regs (phys - 32)
  | None -> ()

let commits_checked t = t.checked

(* Checkpointing: the retired count and configuration are rebuilt on
   restore; only the lockstep cursor travels. *)
let save b t =
  Bin.w_int b t.last_trace_idx;
  Bin.w_int b t.last_seq;
  Bin.w_int b t.last_cycle;
  Bin.w_int b t.checked;
  Bin.w_int b t.next_pc

let load r t =
  t.last_trace_idx <- Bin.r_int r;
  t.last_seq <- Bin.r_int r;
  t.last_cycle <- Bin.r_int r;
  t.checked <- Bin.r_int r;
  t.next_pc <- Bin.r_int r
