(* Compact binary codec of every checkpoint (see bin.mli). *)

exception Corrupt of string

type reader = { data : string; mutable pos : int }

let reader ?(pos = 0) data = { data; pos }
let remaining r = String.length r.data - r.pos

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let need r n =
  if r.pos + n > String.length r.data then
    corrupt "truncated input: need %d bytes at offset %d of %d" n r.pos
      (String.length r.data)

(* ---------- integers ---------- *)

(* LEB128 over the unsigned 64-bit image of the value: negative OCaml
   ints sign-extend into Int64 and cost 10 bytes, small counters one. *)
let w_i64_leb b (v : int64) =
  let v = ref v in
  let fini = ref false in
  while not !fini do
    let byte = Int64.to_int (Int64.logand !v 0x7FL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char b (Char.chr byte);
      fini := true
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let r_i64_leb r : int64 =
  let acc = ref 0L in
  let shift = ref 0 in
  let fini = ref false in
  while not !fini do
    if !shift > 63 then corrupt "overlong varint at offset %d" r.pos;
    need r 1;
    let byte = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    acc :=
      Int64.logor !acc
        (Int64.shift_left (Int64.of_int (byte land 0x7F)) !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then fini := true
  done;
  !acc

(* [w_i64_leb (Int64.of_int n)] and [Int64.to_int (r_i64_leb r)] on the
   native int, boxing nothing.  A negative int sign-extends to 64 bits:
   nine continued 7-bit groups of its 63 bits, then bit 63 alone; the
   reader drops that bit as [Int64.to_int] does. *)
let w_int b n =
  let v = ref n and groups = ref 0 in
  while if n >= 0 then !v >= 0x80 else !groups < 9 do
    Buffer.add_char b (Char.unsafe_chr (!v land 0x7F lor 0x80));
    v := !v lsr 7;
    incr groups
  done;
  Buffer.add_char b (Char.unsafe_chr (if n >= 0 then !v else 1))

let r_int r =
  let acc = ref 0 and shift = ref 0 and fini = ref false in
  while not !fini do
    if !shift > 63 then corrupt "overlong varint at offset %d" r.pos;
    need r 1;
    let byte = Char.code (String.unsafe_get r.data r.pos) in
    r.pos <- r.pos + 1;
    if !shift < 63 then acc := !acc lor ((byte land 0x7F) lsl !shift);
    shift := !shift + 7;
    fini := byte land 0x80 = 0
  done;
  !acc

let w_i64 = w_i64_leb
let r_i64 = r_i64_leb

let w_int32 b v = Buffer.add_int32_le b v

let r_int32 r =
  need r 4;
  let v = String.get_int32_le r.data r.pos in
  r.pos <- r.pos + 4;
  v

(* ---------- scalars ---------- *)

let w_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let r_bool r =
  need r 1;
  let c = r.data.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\000' -> false
  | '\001' -> true
  | c -> corrupt "bad bool byte %d at offset %d" (Char.code c) (r.pos - 1)

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let r_string r =
  let n = r_int r in
  if n < 0 then corrupt "negative string length at offset %d" r.pos;
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let w_bytes b s = w_string b (Bytes.unsafe_to_string s)

(* ---------- aggregates ---------- *)

let w_int_array b a =
  w_int b (Array.length a);
  Array.iter (w_int b) a

let r_int_array r =
  let n = r_int r in
  if n < 0 || n > remaining r then
    corrupt "bad array length %d at offset %d" n r.pos;
  Array.init n (fun _ -> r_int r)

let r_int_array_into r dst =
  let a = r_int_array r in
  if Array.length a <> Array.length dst then
    corrupt "array length %d does not match expected %d" (Array.length a)
      (Array.length dst);
  Array.blit a 0 dst 0 (Array.length a)

let r_bytes_into r dst =
  let s = r_string r in
  if String.length s <> Bytes.length dst then
    corrupt "byte-buffer length %d does not match expected %d"
      (String.length s) (Bytes.length dst);
  Bytes.blit_string s 0 dst 0 (String.length s)

let w_list b f xs =
  w_int b (List.length xs);
  List.iter (f b) xs

let r_list r f =
  let n = r_int r in
  if n < 0 || n > remaining r then
    corrupt "bad list length %d at offset %d" n r.pos;
  List.init n (fun _ -> f r)

let expect_end r =
  if r.pos <> String.length r.data then
    corrupt "trailing garbage: %d bytes left at offset %d" (remaining r) r.pos

(* ---------- CRC-32 ---------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

let crc32 (s : string) : int =
  let table = Lazy.force crc_table in
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
       crc := table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8))
    s;
  !crc lxor 0xFFFFFFFF
