(* Static verifier for linked STRAIGHT images.

   The STRAIGHT contract is easy for a code generator to violate
   silently: a distance that is legal on one path but reaches past the
   values actually produced on another, an SPADD imbalance that only
   corrupts SP three calls deep, a branch into the middle of nowhere.
   [lint] re-derives these invariants directly from the encoded words,
   independent of the compiler that produced them:

   - every text word decodes, and re-encodes to the identical word
     (field-truncation bugs show up here);
   - every source distance is within [0, max_dist];
   - no instruction reads a distance larger than the minimum number of
     instructions that can have retired before it on ANY path from the
     entry (reading past that window observes garbage ring slots);
   - SPADD offsets balance: along every path through a function the
     accumulated SP displacement at a given PC is unique, and zero at
     every JR;
   - branch/jump/JAL targets land inside the text section;
   - execution cannot fall off the end of the text section.

   The analysis is conservative over an over-approximated CFG: JAL edges
   flow into the callee, and every JR may return to any JAL's return
   point.  That makes the minimum-retired count a true lower bound, so a
   flagged read really can observe an undefined slot on some path of the
   over-approximation. *)

module Isa = Straight_isa.Isa
module Enc = Straight_isa.Encoding
module Image = Assembler.Image

(* Findings share the severity + JSON shape of lib/riscv_lint via
   [Lint_report], so drivers and CI consume both verifiers' output
   uniformly. *)
type finding = Lint_report.finding = {
  pc : int;          (* byte address of the offending instruction *)
  check : string;    (* short machine-stable name of the check *)
  severity : Lint_report.severity;
  message : string;
  func : string option;
}

let pp_finding = Lint_report.pp_finding

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
             (Printf.sprintf "word 0x%08lx has no STRAIGHT decoding" w);
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

(* ---------- CFG helpers ---------- *)

(* Static successor word-indices of instruction [i]; [`Jr] and [`Halt]
   need caller-specific handling. *)
let successors (len : int) (i : int) (insn : Isa.resolved) :
  [ `Idx of int list | `Jr | `Halt ] =
  let t off = i + off in
  match insn with
  | Isa.J off -> `Idx [ t off ]
  | Isa.Jal off -> `Idx [ t off ]
  | Isa.Jr _ -> `Jr
  | Isa.Halt -> `Halt
  | Isa.Bez (_, off) | Isa.Bnz (_, off) -> `Idx [ i + 1; t off ]
  | _ -> `Idx [ i + 1 ]
  [@@warning "-27"]

let in_text (len : int) (idx : int) = idx >= 0 && idx < len

(* ---------- the checks ---------- *)

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
       match insn with
       | None -> ()
       | Some insn ->
         (match insn with
          | Isa.Bez (_, off) | Isa.Bnz (_, off) | Isa.J off | Isa.Jal off ->
            if not (in_text len (i + off)) then
              add pc "target-bounds"
                (Printf.sprintf
                   "control target 0x%x outside text [0x%x, 0x%x)"
                   (pc + (4 * off))
                   image.Image.text_base
                   (Image.text_end image))
          | _ -> ());
         (* falling past the last word means fetching outside .text *)
         if i = len - 1 then begin
           match insn with
           | Isa.J _ | Isa.Jal _ | Isa.Jr _ | Isa.Halt -> ()
           | _ ->
             add pc "fall-through"
               "last text instruction can fall through past the end of .text"
         end)
    insns;
  List.rev !findings

let check_distances ?(max_dist = Isa.max_dist) (image : Image.t)
    (insns : Isa.resolved option array) : finding list =
  let findings = ref [] in
  Array.iteri
    (fun i insn ->
       let pc = image.Image.text_base + (4 * i) in
       match insn with
       | None -> ()
       | Some insn ->
         List.iter
           (fun d ->
              if d > max_dist then
                findings :=
                  Lint_report.finding ~pc ~check:"distance-range"
                    (Printf.sprintf "source distance %d exceeds max_dist %d" d
                       max_dist)
                  :: !findings)
           (Isa.sources insn))
    insns;
  List.rev !findings

(* Minimum number of retired instructions before each instruction over
   any path from the entry, saturated at [cap].  A source distance
   larger than this bound can read a ring slot no instruction has
   written yet. *)
let min_retired (image : Image.t) (insns : Isa.resolved option array)
    ~(cap : int) : int array =
  let len = Array.length insns in
  let v = Array.make len max_int in
  (* return points: every JAL's [i + 1] (JAL writes the link there) *)
  let return_points =
    let acc = ref [] in
    Array.iteri
      (fun i insn ->
         match insn with
         | Some (Isa.Jal _) when i + 1 < len -> acc := (i + 1) :: !acc
         | _ -> ())
      insns;
    !acc
  in
  let entry_idx = (image.Image.entry - image.Image.text_base) / 4 in
  let work = Queue.create () in
  let relax idx value =
    if in_text len idx && value < v.(idx) then begin
      v.(idx) <- value;
      Queue.push idx work
    end
  in
  relax entry_idx 0;
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    match insns.(i) with
    | None -> ()
    | Some insn ->
      let value = min (v.(i) + 1) cap in
      (match successors len i insn with
       | `Idx succ -> List.iter (fun j -> relax j value) succ
       | `Halt -> ()
       | `Jr ->
         (* a return may resume at any call's return point *)
         List.iter (fun j -> relax j value) return_points)
  done;
  v

let check_live_window ?(max_dist = Isa.max_dist) (image : Image.t)
    (insns : Isa.resolved option array) : finding list =
  let v = min_retired image insns ~cap:max_dist in
  let findings = ref [] in
  Array.iteri
    (fun i insn ->
       let pc = image.Image.text_base + (4 * i) in
       match insn with
       | None -> ()
       | Some insn ->
         if v.(i) < max_int then
           List.iter
             (fun d ->
                if d > 0 && d > v.(i) then
                  findings :=
                    Lint_report.finding ~pc ~check:"live-window"
                      (Printf.sprintf
                         "distance %d reaches before the live window (at most \
                          %d instructions retired on the shortest path here)"
                         d v.(i))
                    :: !findings)
             (Isa.sources insn))
    insns;
  List.rev !findings

(* SPADD balance: DFS from the image entry and from every JAL target,
   tracking the accumulated SP displacement.  A JAL is summarized as
   "callee returns with SP restored" (its own traversal checks that),
   so the walk continues at the return point with an unchanged offset. *)
let check_spadd (image : Image.t) (insns : Isa.resolved option array) :
  finding list =
  let len = Array.length insns in
  let findings = ref [] in
  let add pc check message =
    findings := Lint_report.finding ~pc ~check message :: !findings
  in
  let seen : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let rec walk (i : int) (offset : int) : unit =
    if in_text len i then begin
      let pc = image.Image.text_base + (4 * i) in
      match Hashtbl.find_opt seen i with
      | Some o ->
        if o <> offset then
          add pc "spadd-imbalance"
            (Printf.sprintf
               "SP displacement depends on the path taken here (%d vs %d)" o
               offset)
      | None ->
        Hashtbl.replace seen i offset;
        (match insns.(i) with
         | None -> ()
         | Some insn ->
           let offset' =
             match insn with Isa.Spadd k -> offset + k | _ -> offset
           in
           (match insn with
            | Isa.Jr _ ->
              if offset' <> 0 then
                add pc "spadd-imbalance"
                  (Printf.sprintf
                     "function returns with SP displaced by %d bytes" offset')
            | Isa.Halt -> ()
            | Isa.Jal _ -> walk (i + 1) offset'
            | _ ->
              (match successors len i insn with
               | `Idx succ -> List.iter (fun j -> walk j offset') succ
               | `Jr | `Halt -> ())))
    end
  in
  let entry_idx = (image.Image.entry - image.Image.text_base) / 4 in
  walk entry_idx 0;
  Array.iteri
    (fun i insn ->
       match insn with
       | Some (Isa.Jal off) when in_text len (i + off) -> walk (i + off) 0
       | _ -> ())
    insns;
  List.rev !findings

(* ---------- entry points ---------- *)

(* [lint ?max_dist image] runs every check over a linked STRAIGHT image
   and returns the findings, sorted by [pc] then [check] (stably, so
   same-pc same-check findings keep their emission order). *)
let lint ?(max_dist = Isa.max_dist) (image : Image.t) : finding list =
  let insns, decode_findings = decode_text image in
  decode_findings
  @ check_distances ~max_dist image insns
  @ check_targets image insns
  @ check_live_window ~max_dist image insns
  @ check_spadd image insns
  |> List.stable_sort (fun a b -> compare (a.pc, a.check) (b.pc, b.check))
