(* Word-granular sparse memory with MMIO console.  Pages keep functional
   simulation fast over millions of accesses. *)

module Layout = Assembler.Layout
module Image = Assembler.Image

let page_words = 1024
let page_shift = 10 (* log2 page_words *)

type t = {
  pages : (int, int32 array) Hashtbl.t;
  console : Buffer.t;
  mutable last_index : int;        (* the page found last, -1 for none *)
  mutable last_page : int32 array;
}

let create () =
  { pages = Hashtbl.create 64; console = Buffer.create 256;
    last_index = -1; last_page = [||] }

(* Page [index] (word address lsr [page_shift]), created zeroed on first
   touch.  Accesses cluster, so the page found last answers most
   lookups; the others take [Hashtbl.find], which allocates nothing. *)
let page t index =
  if index = t.last_index then t.last_page
  else begin
    let p =
      match Hashtbl.find t.pages index with
      | p -> p
      | exception Not_found ->
        let p = Array.make page_words 0l in
        Hashtbl.replace t.pages index p;
        p
    in
    t.last_index <- index;
    t.last_page <- p;
    p
  end

let check_aligned addr =
  if addr land 3 <> 0 then
    Diag.error
      ~context:[ ("addr", Printf.sprintf "0x%x" addr) ]
      Diag.Mem_unaligned "unaligned word access at 0x%x" addr

(* [read t addr] reads the 32-bit word at byte address [addr]. *)
let read t addr =
  check_aligned addr;
  if Layout.is_mmio addr then
    Diag.error
      ~context:[ ("addr", Printf.sprintf "0x%x" addr) ]
      Diag.Mem_mmio "load from write-only MMIO address 0x%x" addr;
  let w = addr lsr 2 in
  (page t (w lsr page_shift)).(w land (page_words - 1))

(* [write t addr v] writes [v]; MMIO addresses drive the console instead. *)
let write t addr v =
  check_aligned addr;
  if Layout.is_mmio addr then begin
    if addr = Layout.mmio_putint then
      Buffer.add_string t.console (Printf.sprintf "%ld\n" v)
    else if addr = Layout.mmio_putchar then
      Buffer.add_char t.console (Char.chr (Int32.to_int v land 0xFF))
    else
      Diag.error
        ~context:[ ("addr", Printf.sprintf "0x%x" addr) ]
        Diag.Mem_mmio "unknown MMIO store at 0x%x" addr
  end
  else begin
    let w = addr lsr 2 in
    (page t (w lsr page_shift)).(w land (page_words - 1)) <- v
  end

(* [words] stored from byte address [base] on, page by page: exactly
   the pages holding a word of the section exist afterwards.  The
   sections of an image lie far below the MMIO window. *)
let load_section t base words =
  check_aligned base;
  let n = Array.length words in
  let i = ref 0 in
  while !i < n do
    let w = (base lsr 2) + !i in
    let off = w land (page_words - 1) in
    let k = min (n - !i) (page_words - off) in
    Array.blit words !i (page t (w lsr page_shift)) off k;
    i := !i + k
  done

(* [load_image t image] copies .text and .data into memory. *)
let load_image t (image : Image.t) =
  load_section t image.Image.text_base image.Image.text;
  load_section t image.Image.data_base image.Image.data

let output t = Buffer.contents t.console

(* The console so far, then the pages in address order. *)
let save b t =
  Bin.w_string b (Buffer.contents t.console);
  Bin.w_list b
    (fun b (i, p) -> Bin.w_int b i; Array.iter (Bin.w_int32 b) p)
    (List.sort compare (List.of_seq (Hashtbl.to_seq t.pages)))

let load r =
  let t = create () in
  Buffer.add_string t.console (Bin.r_string r);
  let page r =
    let i = Bin.r_int r in
    (i, Array.init page_words (fun _ -> Bin.r_int32 r))
  in
  List.fold_left
    (fun last (i, p) ->
       if i <= last then
         Bin.corrupt "memory page %d out of order" i;
       Hashtbl.replace t.pages i p;
       i)
    (-1) (Bin.r_list r page)
  |> ignore;
  t
