(* Word-granular sparse memory with MMIO console.  Pages keep functional
   simulation fast over millions of accesses. *)

module Layout = Assembler.Layout
module Image = Assembler.Image

let page_bytes = 4096
let page_shift = 12 (* log2 page_bytes *)
let table_size = 64 (* direct-mapped page-table entries, a power of two *)

(* A page is 4 KiB of [Bytes] holding its 1024 words little-endian, the
   layout [Bin.w_int32] writes, so a saved page is its bytes.  The
   functional simulators read and write words as sign-extended ints
   ([read_int], [write_int]) and box nothing. *)
type t = {
  pages : (int, Bytes.t) Hashtbl.t;  (* by page index: address lsr 12 *)
  console : Buffer.t;
  tags : int array;      (* the page index each table entry holds, or -1 *)
  slots : Bytes.t array;
}

let create () =
  { pages = Hashtbl.create 64; console = Buffer.create 256;
    tags = Array.make table_size (-1);
    slots = Array.make table_size Bytes.empty }

(* Page [index], created zeroed on first touch.  A loop walking two or
   three arrays alternates between their pages, so a direct-mapped table
   answers most lookups; a miss takes [Hashtbl.find] and refills the
   entry. *)
let page_miss t index k =
  let p =
    match Hashtbl.find t.pages index with
    | p -> p
    | exception Not_found ->
      let p = Bytes.make page_bytes '\000' in
      Hashtbl.replace t.pages index p;
      p
  in
  t.tags.(k) <- index;
  t.slots.(k) <- p;
  p

let page t index =
  let k = index land (table_size - 1) in
  if Array.unsafe_get t.tags k = index then Array.unsafe_get t.slots k
  else page_miss t index k

let check_aligned addr =
  if addr land 3 <> 0 then
    Diag.error
      ~context:[ ("addr", Printf.sprintf "0x%x" addr) ]
      Diag.Mem_unaligned "unaligned word access at 0x%x" addr

let read_int t addr =
  check_aligned addr;
  if Layout.is_mmio addr then
    Diag.error
      ~context:[ ("addr", Printf.sprintf "0x%x" addr) ]
      Diag.Mem_mmio "load from write-only MMIO address 0x%x" addr;
  Int32.to_int
    (Bytes.get_int32_le (page t (addr lsr page_shift))
       (addr land (page_bytes - 1)))

let write_int t addr v =
  check_aligned addr;
  if Layout.is_mmio addr then begin
    if addr = Layout.mmio_putint then
      Buffer.add_string t.console (Printf.sprintf "%ld\n" (Int32.of_int v))
    else if addr = Layout.mmio_putchar then
      Buffer.add_char t.console (Char.chr (v land 0xFF))
    else
      Diag.error
        ~context:[ ("addr", Printf.sprintf "0x%x" addr) ]
        Diag.Mem_mmio "unknown MMIO store at 0x%x" addr
  end
  else
    Bytes.set_int32_le (page t (addr lsr page_shift))
      (addr land (page_bytes - 1)) (Int32.of_int v)

let read t addr = Int32.of_int (read_int t addr)
let write t addr v = write_int t addr (Int32.to_int v)

(* [words] stored from byte address [base] on, page by page: exactly
   the pages holding a word of the section exist afterwards.  The
   sections of an image lie far below the MMIO window. *)
let load_section t base words =
  check_aligned base;
  Array.iteri
    (fun i w ->
       let addr = base + (4 * i) in
       Bytes.set_int32_le (page t (addr lsr page_shift))
         (addr land (page_bytes - 1)) w)
    words

(* [load_image t image] copies .text and .data into memory. *)
let load_image t (image : Image.t) =
  load_section t image.Image.text_base image.Image.text;
  load_section t image.Image.data_base image.Image.data

let output t = Buffer.contents t.console

(* The console so far, then the pages in address order, each as its
   index and 1024 [Bin.w_int32] words. *)
let save b t =
  Bin.w_string b (Buffer.contents t.console);
  Bin.w_list b
    (fun b (i, p) -> Bin.w_int b i; Buffer.add_bytes b p)
    (List.sort
       (fun (i, _) (j, _) -> Int.compare i j)
       (List.of_seq (Hashtbl.to_seq t.pages)))

let load r =
  let t = create () in
  Buffer.add_string t.console (Bin.r_string r);
  let page r =
    let i = Bin.r_int r in
    let p = Bytes.create page_bytes in
    for k = 0 to (page_bytes / 4) - 1 do
      Bytes.set_int32_le p (4 * k) (Bin.r_int32 r)
    done;
    (i, p)
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
