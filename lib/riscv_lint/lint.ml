(* Static verifier for linked RV32IM images — the RISC-V counterpart of
   lib/straight_lint, closing the verifier asymmetry between the two
   back ends.  Where STRAIGHT's invariants are about distances and SPADD
   balance, the RISC-V invariants are the ones a linear-scan register
   allocator can silently violate:

   - every text word decodes, and re-encodes to the identical word
     (field-truncation bugs show up here);
   - branch/jump targets land inside the text section, on a 4-byte
     boundary, and execution cannot fall off the end of .text;
   - no instruction reads a register that is not definitely written on
     every path from its function's entry (the static analogue of a
     liveness bug: a temporary read before any def, or a caller-saved
     register read across a call that clobbers it);
   - callee-saved registers (ra, s0-s11) hold their entry values again
     at every return, either untouched or saved to and restored from a
     private stack slot;
   - sp is adjusted only by `addi sp, sp, imm`, its displacement
     balances to zero on every path to a return, and every sp-relative
     lw/sw stays inside the live frame.

   Functions are identified from call targets: the image entry plus the
   target of every `jal` that writes a register.  Each function is
   analyzed intra-procedurally with calls summarized by the ABI: a call
   preserves sp and s0-s11 (each callee's own traversal proves it),
   defines ra and a0, and clobbers every other caller-saved register.

   Known blind spot, shared with every binary verifier at this level:
   stores through computed pointers are assumed not to alias the stack
   slots holding saved callee-saved registers.  A program whose own
   semantics smash its frame can therefore pass the ABI check while
   still being flagged by the differential fuzzer. *)

module Isa = Riscv_isa.Isa
module Enc = Riscv_isa.Encoding
module Image = Assembler.Image
module IntMap = Map.Make (Int)

type finding = Lint_report.finding = {
  pc : int;
  check : string;
  severity : Lint_report.severity;
  message : string;
  func : string option;
}

let pp_finding = Lint_report.pp_finding

(* ---------- register sets (ABI) ---------- *)

let bit r = 1 lsl r
let mask_of rs = List.fold_left (fun acc r -> acc lor bit r) 0 rs

(* t0-t6: dead at function entry and clobbered by calls. *)
let temp_mask = mask_of [ 5; 6; 7; 28; 29; 30; 31 ]

(* s0-s11: callee-saved. *)
let s_mask = mask_of [ 8; 9; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27 ]

(* Registers a call leaves defined: zero/sp/gp/tp plus the callee-saved
   file.  ra and a0 are re-defined by the call itself; a1-a7 and the
   temporaries come back as garbage. *)
let call_preserved_mask = mask_of [ 0; 2; 3; 4 ] lor s_mask

(* Registers whose entry value must be intact again at every return:
   ra plus s0-s11 (sp is tracked separately as a displacement). *)
let tracked_mask = bit 1 lor s_mask

let all_regs_mask = (1 lsl 32) - 1

(* Everything but the temporaries is considered defined at a function's
   entry: arguments by the caller, callee-saved registers by whoever set
   them last (reading one before writing it is exactly how a prologue
   saves it), sp/ra by the calling sequence. *)
let entry_defined_mask = all_regs_mask land lnot temp_mask

(* ---------- decode phase ---------- *)

(* Decode the whole text section; undecodable slots stay [None]. *)
let decode_text (image : Image.t) :
  Isa.resolved option array * finding list =
  let findings = ref [] in
  let add pc check message =
    findings := Lint_report.finding ~pc ~check message :: !findings
  in
  let insns =
    Array.mapi
      (fun i w ->
         let pc = image.Image.text_base + (4 * i) in
         match Enc.decode w with
         | None ->
           add pc "illegal-opcode"
             (Printf.sprintf "word 0x%08lx has no RV32IM decoding" w);
           None
         | Some insn ->
           (match Enc.encode insn with
            | w' when w' = w -> ()
            | w' ->
              add pc "encode-roundtrip"
                (Printf.sprintf
                   "decoded instruction re-encodes to 0x%08lx, image has 0x%08lx"
                   w' w)
            | exception
                Diag.Error { code = Diag.Encode_error; message = msg; _ } ->
              add pc "encode-roundtrip"
                (Printf.sprintf "decoded instruction does not re-encode: %s" msg));
           Some insn)
      image.Image.text
  in
  (insns, List.rev !findings)

(* [lint_roundtrip image] is the decode/re-encode fidelity check alone
   (the historical [Straight_lint.Lint.lint_riscv_roundtrip]). *)
let lint_roundtrip (image : Image.t) : finding list =
  snd (decode_text image)

(* ---------- CFG helpers ---------- *)

let in_text (len : int) (idx : int) = idx >= 0 && idx < len

let word_target (i : int) (off : int) : int option =
  if off land 3 = 0 then Some (i + (off asr 2)) else None

(* Intra-procedural successor word-indices: calls are summarized (the
   callee is a separate function), `jalr x0, ra, 0` is the return. *)
type succ =
  | Next of int list
  | Return
  | Halt
  | Indirect   (* a jalr we cannot resolve statically *)

let successors (len : int) (i : int) (insn : Isa.resolved) : succ =
  let tgt off = match word_target i off with
    | Some t when in_text len t -> [ t ]
    | _ -> []
  in
  match insn with
  | Isa.Jal (0, off) -> Next (tgt off)
  | Isa.Jal (_, _) -> Next (if in_text len (i + 1) then [ i + 1 ] else [])
  | Isa.Branch (_, _, _, off) ->
    Next ((if in_text len (i + 1) then [ i + 1 ] else []) @ tgt off)
  | Isa.Jalr (0, 1, 0) -> Return
  | Isa.Jalr (_, _, _) -> Indirect
  | Isa.Ebreak -> Halt
  | _ -> Next (if in_text len (i + 1) then [ i + 1 ] else [])

(* ---------- control-sanity checks ---------- *)

let check_targets (image : Image.t) (insns : Isa.resolved option array) :
  finding list =
  let len = Array.length insns in
  let findings = ref [] in
  let add pc check message =
    findings := Lint_report.finding ~pc ~check message :: !findings
  in
  Array.iteri
    (fun i insn ->
       let pc = image.Image.text_base + (4 * i) in
       (match insn with
        | Some (Isa.Jal (_, off)) | Some (Isa.Branch (_, _, _, off)) ->
          let target = pc + off in
          if target < image.Image.text_base || target >= Image.text_end image
          then
            add pc "target-bounds"
              (Printf.sprintf "control target 0x%x outside text [0x%x, 0x%x)"
                 target image.Image.text_base (Image.text_end image))
          else if off land 3 <> 0 then
            add pc "target-align"
              (Printf.sprintf "control target 0x%x is not 4-byte aligned"
                 target)
        | _ -> ());
       (* falling past the last word means fetching outside .text; a
          trailing call falls through when the callee returns *)
       if i = len - 1 then begin
         match insn with
         | None | Some (Isa.Jal (0, _)) | Some (Isa.Jalr _) | Some Isa.Ebreak ->
           ()
         | Some _ ->
           add pc "fall-through"
             "last text instruction can fall through past the end of .text"
       end)
    insns;
  List.rev !findings

(* ---------- function discovery ---------- *)

(* Function entry word-indices: the image entry plus the target of every
   link-writing jal. *)
let function_entries (image : Image.t) (insns : Isa.resolved option array) :
  int list =
  let len = Array.length insns in
  let entries = ref [] in
  let add i = if in_text len i && not (List.mem i !entries) then
      entries := i :: !entries
  in
  add ((image.Image.entry - image.Image.text_base) / 4);
  Array.iteri
    (fun i insn ->
       match insn with
       | Some (Isa.Jal (rd, off)) when rd <> 0 ->
         (match word_target i off with Some t -> add t | None -> ())
       | _ -> ())
    insns;
  List.rev !entries

(* Word indices reachable from [entry] without following call edges. *)
let function_body (insns : Isa.resolved option array) (entry : int) :
  (int, unit) Hashtbl.t =
  let len = Array.length insns in
  let body = Hashtbl.create 64 in
  let stack = ref [ entry ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
      stack := rest;
      if in_text len i && not (Hashtbl.mem body i) then begin
        Hashtbl.replace body i ();
        match insns.(i) with
        | None -> ()
        | Some insn ->
          (match successors len i insn with
           | Next succ -> List.iter (fun j -> stack := j :: !stack) succ
           | Return | Halt | Indirect -> ())
      end
  done;
  body

(* ---------- reaching definitions on physical registers ---------- *)

(* Must-defined register sets, one forward fixpoint per function: meet
   is intersection, so a register survives only if it is written on
   EVERY path from the entry.  A read outside the set is the static
   analogue of a linear-scan liveness bug. *)
let defined_transfer (insn : Isa.resolved) (defined : int) : int =
  match insn with
  | Isa.Jal (rd, _) when rd <> 0 ->
    (* a call: the callee preserves sp/s-regs, defines ra (the jal) and
       a0 (the return value), and clobbers everything else *)
    (defined land call_preserved_mask) lor bit rd lor bit 10
  | insn ->
    (match Isa.dest insn with
     | Some rd -> defined lor bit rd
     | None -> defined)

let check_uninit (image : Image.t) (insns : Isa.resolved option array)
    (entry : int) (body : (int, unit) Hashtbl.t) : finding list =
  let len = Array.length insns in
  let state : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let work = Queue.create () in
  let join i v =
    let v' =
      match Hashtbl.find_opt state i with
      | Some prev -> prev land v
      | None -> v
    in
    if Hashtbl.find_opt state i <> Some v' then begin
      Hashtbl.replace state i v';
      Queue.push i work
    end
  in
  join entry entry_defined_mask;
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    if Hashtbl.mem body i then
      match insns.(i) with
      | None -> ()
      | Some insn ->
        let out = defined_transfer insn (Hashtbl.find state i) in
        (match successors len i insn with
         | Next succ -> List.iter (fun j -> join j out) succ
         | Return | Halt | Indirect -> ())
  done;
  let findings = ref [] in
  Hashtbl.iter
    (fun i () ->
       match insns.(i), Hashtbl.find_opt state i with
       | Some insn, Some defined ->
         let pc = image.Image.text_base + (4 * i) in
         List.iter
           (fun r ->
              if defined land bit r = 0 then
                findings :=
                  Lint_report.finding ~pc ~check:"uninit-read"
                    (Printf.sprintf
                       "reads %s, which is not written on every path from \
                        the function entry at 0x%x"
                       (Isa.reg_name r)
                       (image.Image.text_base + (4 * entry)))
                  :: !findings)
           (List.sort_uniq compare (Isa.sources insn))
       | _ -> ())
    body;
  List.sort (fun a b -> compare a.pc b.pc) !findings

(* ---------- ABI preservation and stack discipline ---------- *)

(* Joint forward analysis per function:

   - [disp]: current sp displacement from the function entry (bytes,
     negative while a frame is open);
   - [pres]: which tracked registers (ra, s0-s11) still hold — or hold
     again — their entry value;
   - [slots]: entry-sp-relative frame offsets known to contain the entry
     value of a tracked register (written by `sw sN, k(sp)` while sN was
     intact; reading one back re-establishes the register).

   Calls keep [disp] and the s-register portion of [pres] (each callee's
   own traversal proves the summary) and clobber ra.  At every return,
   [disp] must be 0 and every tracked register must be present. *)
type astate = {
  disp : int;
  pres : int;
  slots : int IntMap.t;
}

let astate_equal a b =
  a.disp = b.disp && a.pres = b.pres && IntMap.equal ( = ) a.slots b.slots

(* Meet two states flowing into the same point; [None] on an sp
   disagreement (reported by the caller, not propagated further). *)
let astate_meet a b : astate option =
  if a.disp <> b.disp then None
  else
    Some
      { disp = a.disp;
        pres = a.pres land b.pres;
        slots =
          IntMap.merge
            (fun _ x y ->
               match x, y with Some r, Some r' when r = r' -> Some r | _ -> None)
            a.slots b.slots }

let is_tracked r = tracked_mask land bit r <> 0

(* One instruction's effect on the ABI state.  [report] receives the
   per-instruction findings (frame bounds, sp discipline, return-time
   checks) and is a no-op during the fixpoint.  Returns [None] when the
   path ends here (return, halt, undecodable, indirect). *)
let abi_transfer ~(report : string -> string -> unit) (insn : Isa.resolved)
    (st : astate) : astate option =
  let frame_check kind off =
    let addr = st.disp + off in
    if not (st.disp <= addr && addr < 0) then
      report "frame-bounds"
        (Printf.sprintf
           "%s at sp%+d reaches outside the live frame (sp%+d .. sp%+d)" kind
           off 0 (-st.disp))
  in
  match insn with
  | Isa.Alui (Isa.Addi, 2, 2, k) ->
    let disp = st.disp + k in
    if disp > 0 then
      report "stack-imbalance"
        (Printf.sprintf "SP rises %d bytes above its function-entry value" disp);
    (* releasing the frame kills the slots that lived in it *)
    let slots =
      if k > 0 then IntMap.filter (fun addr _ -> addr >= disp) st.slots
      else st.slots
    in
    Some { st with disp; slots }
  | insn when Isa.dest insn = Some 2 ->
    report "sp-discipline"
      "sp is written by something other than `addi sp, sp, imm`";
    None
  | Isa.Sw (rs2, 2, off) ->
    frame_check "store" off;
    let addr = st.disp + off in
    let slots =
      if is_tracked rs2 && st.pres land bit rs2 <> 0 then
        IntMap.add addr rs2 st.slots
      else IntMap.remove addr st.slots
    in
    Some { st with slots }
  | Isa.Lw (rd, 2, off) ->
    frame_check "load" off;
    let addr = st.disp + off in
    let pres =
      match IntMap.find_opt addr st.slots with
      | Some r when r = rd -> st.pres lor bit rd
      | _ -> if is_tracked rd then st.pres land lnot (bit rd) else st.pres
    in
    Some { st with pres }
  | Isa.Jal (rd, _) when rd <> 0 ->
    (* call: ra is overwritten by the jal; the callee's own traversal
       proves sp and s0-s11 come back intact *)
    let pres = st.pres land lnot (bit 1) in
    let pres = if is_tracked rd then pres land lnot (bit rd) else pres in
    Some { st with pres }
  | Isa.Jalr (0, 1, 0) ->
    if st.disp <> 0 then
      report "stack-imbalance"
        (Printf.sprintf "function returns with SP displaced by %d bytes"
           st.disp);
    if st.pres land bit 1 = 0 then
      report "callee-saved-clobbered"
        "function returns with ra not holding its entry value";
    List.iter
      (fun r ->
         if is_tracked r && r <> 1 && st.pres land bit r = 0 then
           report "callee-saved-clobbered"
             (Printf.sprintf
                "function returns with callee-saved %s not holding its \
                 entry value"
                (Isa.reg_name r)))
      [ 8; 9; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27 ];
    None
  | Isa.Jalr (_, _, _) -> None
  | Isa.Ebreak -> None
  | insn ->
    (match Isa.dest insn with
     | Some rd when is_tracked rd -> Some { st with pres = st.pres land lnot (bit rd) }
     | _ -> Some st)

let check_abi (image : Image.t) (insns : Isa.resolved option array)
    (entry : int) (body : (int, unit) Hashtbl.t) : finding list =
  let len = Array.length insns in
  let no_report _ _ = () in
  let state : (int, astate) Hashtbl.t = Hashtbl.create 64 in
  let conflicts : (int, int * int) Hashtbl.t = Hashtbl.create 4 in
  let work = Queue.create () in
  let join i v =
    match Hashtbl.find_opt state i with
    | None ->
      Hashtbl.replace state i v;
      Queue.push i work
    | Some prev ->
      (match astate_meet prev v with
       | Some met ->
         if not (astate_equal met prev) then begin
           Hashtbl.replace state i met;
           Queue.push i work
         end
       | None ->
         if not (Hashtbl.mem conflicts i) then
           Hashtbl.replace conflicts i (prev.disp, v.disp))
  in
  join entry { disp = 0; pres = tracked_mask; slots = IntMap.empty };
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    if Hashtbl.mem body i then
      match insns.(i) with
      | None -> ()
      | Some insn ->
        (match abi_transfer ~report:no_report insn (Hashtbl.find state i) with
         | None -> ()
         | Some out ->
           (match successors len i insn with
            | Next succ -> List.iter (fun j -> join j out) succ
            | Return | Halt | Indirect -> ()))
  done;
  (* reporting sweep over the fixed point *)
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  let add pc check message =
    if not (Hashtbl.mem seen (pc, check, message)) then begin
      Hashtbl.replace seen (pc, check, message) ();
      findings := Lint_report.finding ~pc ~check message :: !findings
    end
  in
  Hashtbl.iter
    (fun i (d1, d2) ->
       add
         (image.Image.text_base + (4 * i))
         "stack-imbalance"
         (Printf.sprintf
            "SP displacement depends on the path taken here (%d vs %d)" d1 d2))
    conflicts;
  Hashtbl.iter
    (fun i () ->
       match insns.(i), Hashtbl.find_opt state i with
       | Some insn, Some st ->
         let pc = image.Image.text_base + (4 * i) in
         ignore (abi_transfer ~report:(add pc) insn st)
       | _ -> ())
    body;
  List.sort (fun a b -> compare (a.pc, a.check) (b.pc, b.check)) !findings

(* ---------- entry point ---------- *)

(* [lint image] runs every check over a linked RV32IM image and returns
   the findings: decode fidelity and control sanity over the whole text
   section, then the dataflow checks function by function. *)
let lint (image : Image.t) : finding list =
  let insns, decode_findings = decode_text image in
  let control_findings = check_targets image insns in
  let per_function =
    List.concat_map
      (fun entry ->
         let body = function_body insns entry in
         check_uninit image insns entry body
         @ check_abi image insns entry body)
      (function_entries image insns)
  in
  decode_findings @ control_findings @ per_function
  |> List.stable_sort (fun a b -> compare (a.pc, a.check) (b.pc, b.check))
