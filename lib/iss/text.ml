(* The text section as both functional simulators run it: decoded once
   for dispatch, and the uops its words retire as. *)

(* Decode every text word; [illegal word pc] handles one that does not
   decode. *)
let decode decode ~illegal (image : Assembler.Image.t) =
  Array.mapi
    (fun i w ->
       match decode w with
       | Some insn -> insn
       | None -> illegal w (image.Assembler.Image.text_base + (4 * i)))
    image.Assembler.Image.text

(* Per text word, the uop it retires as with a conditional branch not
   taken and taken, and what wrong-path fetch reads there.  Built at the
   first retirement that asks for one and shared by every retirement
   whose dynamic fields they hold: the cycle engine keeps thousands of
   uops in flight, and fresh ones would each be promoted out of the
   minor heap.  A retirement with a memory address or an indirect
   target copies its word's [not_taken] shape and sets that field. *)
type shapes = {
  not_taken : Trace.uop array;
  taken : Trace.uop array;
  fetched : Trace.uop option array;
      (* the not-taken shape, or [None] at a stop instruction *)
}

let shapes retired_uop ~is_stop text_base code =
  lazy
    (let uops taken =
       Array.mapi
         (fun i insn ->
            retired_uop (text_base + (4 * i)) insn ~mem_addr:0 ~taken
              ~next:(-1))
         code
     in
     let not_taken = uops false in
     { not_taken;
       taken = uops true;
       fetched =
         Array.mapi
           (fun i insn -> if is_stop insn then None else Some not_taken.(i))
           code })

(* Wrong-path fetch at [pc]: [fetched], or [None] at a misaligned pc or
   outside the text. *)
let static_uop text_base shapes pc =
  let fetched = (Lazy.force shapes).fetched in
  let idx = (pc - text_base) asr 2 in
  if pc land 3 <> 0 || idx < 0 || idx >= Array.length fetched then None
  else fetched.(idx)
