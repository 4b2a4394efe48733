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
   taken and taken.  Built at the first retirement that asks for one and
   shared by every retirement whose dynamic fields they hold: the cycle
   engine keeps thousands of uops in flight, and fresh ones would each
   be promoted out of the minor heap. *)
let shapes retired_uop text_base code =
  lazy
    (let uops taken =
       Array.mapi
         (fun i insn ->
            retired_uop (text_base + (4 * i)) insn ~mem_addr:0 ~taken
              ~next:(-1))
         code
     in
     (uops false, uops true))

(* Wrong-path fetch at [pc]: the not-taken half of [shapes], or [None]
   at a stop instruction, at a misaligned pc or outside the text. *)
let static_uop ~is_stop text_base code shapes pc =
  let idx = (pc - text_base) asr 2 in
  if pc land 3 <> 0 || idx < 0 || idx >= Array.length code
     || is_stop code.(idx)
  then None
  else Some (fst (Lazy.force shapes)).(idx)
