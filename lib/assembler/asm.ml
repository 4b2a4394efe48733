(* Generic two-pass assembler + linker, functorized over the target ISA.
   Pass 1 lays out sections and records label addresses; pass 2 resolves
   control-flow targets to PC-relative offsets and encodes machine words. *)

exception Asm_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Asm_error s)) fmt

type section = Text | Data

(* A unit of assembly input.  Compilers build [item list] values directly;
   `.s` text files are tokenized into the same representation. *)
type 'insn item =
  | Label of string
  | Insn of 'insn                    (* instruction with symbolic targets *)
  | Section of section
  | Word of int32                    (* .word — one initialized data word *)
  | Space of int                     (* .space n — n zero bytes (word aligned) *)
  | Equ of string * int              (* .equ name value — absolute symbol *)

module type TARGET = sig
  type 'lab insn

  val isa : Image.isa
  (** Recorded in every image this target assembles. *)

  val parse_insn : string list -> string insn
  (** Parse a tokenized statement into a symbolic instruction. *)

  val map_label : ('a -> 'b) -> 'a insn -> 'b insn

  val encode : int insn -> int32

  val resolve_target : pc:int -> target:int -> int
  (** Turn an absolute [target] address into the offset stored in the
      instruction word (byte-granular for RISC-V, word-granular for
      STRAIGHT). *)

  val pp_sym : Format.formatter -> string insn -> unit
end

(* Tokenize one line of assembly: strip `#`/`;` comments, split on blanks
   and commas, and peel off a leading `label:`. *)
let tokenize_line line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line =
    match String.index_opt line ';' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let buf = Buffer.create 8 in
  let tokens = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
       match c with
       | ' ' | '\t' | ',' | '\r' -> flush ()
       | ':' -> Buffer.add_char buf ':'; flush ()
       | c -> Buffer.add_char buf c)
    line;
  flush ();
  List.rev !tokens

module Make (T : TARGET) = struct
  type program = string T.insn item list

  (* [parse_source text] converts assembly text into items. *)
  let parse_source (text : string) : program =
    let items = ref [] in
    let push i = items := i :: !items in
    String.split_on_char '\n' text
    |> List.iter (fun line ->
        let rec consume tokens =
          match tokens with
          | [] -> ()
          | tok :: rest when String.length tok > 1 && tok.[String.length tok - 1] = ':' ->
            push (Label (String.sub tok 0 (String.length tok - 1)));
            consume rest
          | ".text" :: rest -> push (Section Text); consume rest
          | ".data" :: rest -> push (Section Data); consume rest
          | ".word" :: values ->
            List.iter
              (fun v ->
                 match Int32.of_string_opt v with
                 | Some w -> push (Word w)
                 | None -> fail "bad .word value %S" v)
              values
          | [ ".space"; n ] ->
            (match int_of_string_opt n with
             | Some n -> push (Space n)
             | None -> fail "bad .space value %S" n)
          | [ ".equ"; name; v ] ->
            (match int_of_string_opt v with
             | Some v -> push (Equ (name, v))
             | None -> fail "bad .equ value %S" v)
          | ".global" :: _ | ".globl" :: _ -> ()
          | tokens -> push (Insn (T.parse_insn tokens))
        in
        consume (tokenize_line line));
    List.rev !items

  (* [assemble ?entry items] runs both passes and links a loadable image.
     [entry] names the start symbol (default ["_start"], falling back to
     ["main"], falling back to the first text address). *)
  let assemble ?(entry = "_start") (items : program) : Image.t =
    (* Pass 1: layout. *)
    let symbols = Hashtbl.create 64 in
    let text_count = ref 0 and data_bytes = ref 0 in
    let section = ref Text in
    List.iter
      (fun item ->
         match item with
         | Section s -> section := s
         | Label name ->
           let addr =
             match !section with
             | Text -> Layout.text_base + (4 * !text_count)
             | Data -> Layout.data_base + !data_bytes
           in
           if Hashtbl.mem symbols name then fail "duplicate label %S" name;
           Hashtbl.replace symbols name addr
         | Equ (name, v) ->
           if Hashtbl.mem symbols name then fail "duplicate symbol %S" name;
           Hashtbl.replace symbols name v
         | Insn _ ->
           if !section <> Text then fail "instruction outside .text";
           incr text_count
         | Word _ ->
           if !section <> Data then fail ".word outside .data";
           data_bytes := !data_bytes + 4
         | Space n ->
           if !section <> Data then fail ".space outside .data";
           if n < 0 || n land 3 <> 0 then fail ".space %d not word aligned" n;
           data_bytes := !data_bytes + n)
      items;
    (* Pass 2: resolve and encode. *)
    let text = Array.make !text_count 0l in
    let data = Array.make (!data_bytes / 4) 0l in
    let ti = ref 0 and di = ref 0 in
    let section = ref Text in
    let lookup name =
      match Hashtbl.find_opt symbols name with
      | Some a -> a
      | None ->
        (* Numeric "labels" let hand-written tests jump to absolute addresses. *)
        (match int_of_string_opt name with
         | Some a -> a
         | None -> fail "undefined symbol %S" name)
    in
    List.iter
      (fun item ->
         match item with
         | Section s -> section := s
         | Label _ | Equ _ -> ()
         | Insn insn ->
           let pc = Layout.text_base + (4 * !ti) in
           let resolved =
             T.map_label (fun l -> T.resolve_target ~pc ~target:(lookup l)) insn
           in
           text.(!ti) <- T.encode resolved;
           incr ti
         | Word w ->
           data.(!di) <- w;
           incr di
         | Space n ->
           di := !di + (n / 4))
      items;
    let entry_addr =
      match Hashtbl.find_opt symbols entry, Hashtbl.find_opt symbols "main" with
      | Some a, _ -> a
      | None, Some a -> a
      | None, None -> Layout.text_base
    in
    { Image.isa = T.isa;
      entry = entry_addr;
      text_base = Layout.text_base;
      text;
      data_base = Layout.data_base;
      data;
      symbols = Hashtbl.fold (fun k v acc -> (k, v) :: acc) symbols [] }

  let assemble_source ?entry text = assemble ?entry (parse_source text)

  (* Pretty-print a program back to assembly text (round-trip tested). *)
  let print_program fmt (items : program) =
    List.iter
      (fun item ->
         match item with
         | Section Text -> Format.fprintf fmt ".text@."
         | Section Data -> Format.fprintf fmt ".data@."
         | Label l -> Format.fprintf fmt "%s:@." l
         | Insn i -> Format.fprintf fmt "  %a@." T.pp_sym i
         | Word w -> Format.fprintf fmt "  .word %ld@." w
         | Space n -> Format.fprintf fmt "  .space %d@." n
         | Equ (n, v) -> Format.fprintf fmt "  .equ %s %d@." n v)
      items

  let program_to_string items = Format.asprintf "%a" print_program items
end

(* Target instantiations. *)

module Straight_target = struct
  type 'lab insn = 'lab Straight_isa.Isa.t

  let isa = Image.Straight
  let parse_insn = Straight_isa.Parser.parse_insn
  let map_label = Straight_isa.Isa.map_label
  let encode = Straight_isa.Encoding.encode

  (* STRAIGHT branch offsets are word-granular and relative to the branch
     instruction itself. *)
  let resolve_target ~pc ~target = (target - pc) / 4
  let pp_sym = Straight_isa.Isa.pp_sym
end

module Riscv_target = struct
  type 'lab insn = 'lab Riscv_isa.Isa.t

  let isa = Image.Riscv
  let parse_insn = Riscv_isa.Parser.parse_insn
  let map_label = Riscv_isa.Isa.map_label
  let encode = Riscv_isa.Encoding.encode

  (* RISC-V offsets are byte-granular. *)
  let resolve_target ~pc ~target = target - pc
  let pp_sym = Riscv_isa.Isa.pp_sym
end

module Straight = Make (Straight_target)
module Riscv = Make (Riscv_target)

(* ---------- disassembly ---------- *)

(* [disassemble_with decode pp image] renders the text section one decoded
   instruction per line, with addresses and raw words. *)
let disassemble_with (type i) ~(decode : int32 -> i option)
    ~(pp : Format.formatter -> i -> unit) (image : Image.t) : string =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun idx w ->
       let addr = image.Image.text_base + (4 * idx) in
       let sym =
         List.filter_map
           (fun (name, a) -> if a = addr then Some name else None)
           image.Image.symbols
         |> List.sort compare
       in
       List.iter (fun name -> Buffer.add_string buf (name ^ ":\n")) sym;
       (match decode w with
        | Some insn ->
          Buffer.add_string buf
            (Format.asprintf "  %08x: %08lx  %a\n" addr w pp insn)
        | None ->
          Buffer.add_string buf
            (Printf.sprintf "  %08x: %08lx  <illegal>\n" addr w)))
    image.Image.text;
  Buffer.contents buf

let disassemble_straight (image : Image.t) : string =
  disassemble_with ~decode:Straight_isa.Encoding.decode
    ~pp:Straight_isa.Isa.pp_resolved image

let disassemble_riscv (image : Image.t) : string =
  disassemble_with ~decode:Riscv_isa.Encoding.decode
    ~pp:Riscv_isa.Isa.pp_resolved image
