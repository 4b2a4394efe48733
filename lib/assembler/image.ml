(* A loadable program image: the output of the assembler/linker and the
   input of the functional and cycle-accurate simulators. *)

(* The instruction set the text section is encoded in: only the
   assembler knows it, so it records it here, and every simulator that
   takes an image reads it instead of being told. *)
type isa = Straight | Riscv

type t = {
  isa : isa;
  entry : int;                    (* PC of the first executed instruction *)
  text_base : int;
  text : int32 array;             (* encoded instruction words *)
  data_base : int;
  data : int32 array;             (* initialized data words *)
  symbols : (string * int) list;  (* label -> absolute address *)
}

let find_symbol t name = List.assoc_opt name t.symbols

let text_end t = t.text_base + (4 * Array.length t.text)
let data_end t = t.data_base + (4 * Array.length t.data)

(* [fetch_word t addr] reads an instruction word; [None] outside .text. *)
let fetch_word t addr =
  if addr >= t.text_base && addr < text_end t && addr land 3 = 0 then
    Some t.text.((addr - t.text_base) / 4)
  else None
