(* The on-disk checkpoint container: magic, version, length, CRC-32,
   then a Bin-encoded meta section followed by the raw engine image.
   See file.mli for the layout and the atomicity/rejection contract. *)

module Bin = Ooo_common.Bin

let magic = "STR8SNAP"

(* v2 added the [kind] discriminator (engine image vs. sampling-interval
   checkpoint); v3 changed [trace_digest] to the chunked, incremental
   stream digest.  Older files are rejected with a version message. *)
let version = 3
let header_len = 24

(* What the payload after the meta section holds. *)
type kind =
  | Engine_image
  | Interval of { index : int; start : int; len : int; warmup : int }

type meta = {
  kind : kind;
  target : string;
  params_json : string;
  workload_name : string;
  workload_source : string;
  workload_iterations : int;
  max_insns : int;
  max_dist : int;
  check : bool;
  cycle : int;
  committed : int;
  trace_digest : string;
  output : string;
  retired : int;
  dist_histogram : int array;
}

let w_meta b (m : meta) =
  (match m.kind with
   | Engine_image -> Bin.w_int b 0
   | Interval { index; start; len; warmup } ->
     Bin.w_int b 1;
     Bin.w_int b index;
     Bin.w_int b start;
     Bin.w_int b len;
     Bin.w_int b warmup);
  Bin.w_string b m.target;
  Bin.w_string b m.params_json;
  Bin.w_string b m.workload_name;
  Bin.w_string b m.workload_source;
  Bin.w_int b m.workload_iterations;
  Bin.w_int b m.max_insns;
  Bin.w_int b m.max_dist;
  Bin.w_bool b m.check;
  Bin.w_int b m.cycle;
  Bin.w_int b m.committed;
  Bin.w_string b m.trace_digest;
  Bin.w_string b m.output;
  Bin.w_int b m.retired;
  Bin.w_int_array b m.dist_histogram

let r_meta r : meta =
  let kind =
    match Bin.r_int r with
    | 0 -> Engine_image
    | 1 ->
      let index = Bin.r_int r in
      let start = Bin.r_int r in
      let len = Bin.r_int r in
      let warmup = Bin.r_int r in
      Interval { index; start; len; warmup }
    | n -> raise (Bin.Corrupt (Printf.sprintf "bad snapshot kind %d" n))
  in
  let target = Bin.r_string r in
  let params_json = Bin.r_string r in
  let workload_name = Bin.r_string r in
  let workload_source = Bin.r_string r in
  let workload_iterations = Bin.r_int r in
  let max_insns = Bin.r_int r in
  let max_dist = Bin.r_int r in
  let check = Bin.r_bool r in
  let cycle = Bin.r_int r in
  let committed = Bin.r_int r in
  let trace_digest = Bin.r_string r in
  let output = Bin.r_string r in
  let retired = Bin.r_int r in
  let dist_histogram = Bin.r_int_array r in
  { kind; target; params_json; workload_name; workload_source;
    workload_iterations; max_insns; max_dist; check; cycle; committed;
    trace_digest; output; retired; dist_histogram }

(* little-endian fixed-width header fields *)
let put_le b n width =
  for i = 0 to width - 1 do
    Buffer.add_char b (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let get_le s off width =
  let v = ref 0 in
  for i = width - 1 downto 0 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

let reject path fmt =
  Printf.ksprintf
    (fun reason ->
       Diag.error
         ~context:[ ("snapshot", path); ("reason", reason) ]
         Diag.Snapshot_error "cannot restore checkpoint %s: %s" path reason)
    fmt

(* ---------- file-system helpers shared by every store ---------- *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_atomic path (write : out_channel -> unit) =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  try
    let oc = open_out_bin tmp in
    (try write oc; close_out oc with e -> close_out_noerr oc; raise e);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let code_digest =
  let d = lazy (Digest.to_hex (Digest.file Sys.executable_name)) in
  fun () -> Lazy.force d

let save path (m : meta) ~(payload : string) =
  let body = payload in
  let payload = Buffer.create (String.length body + 4096) in
  w_meta payload m;
  Buffer.add_string payload body;
  let payload = Buffer.contents payload in
  let hdr = Buffer.create header_len in
  Buffer.add_string hdr magic;
  put_le hdr version 4;
  put_le hdr (String.length payload) 8;
  put_le hdr (Bin.crc32 payload) 4;
  write_atomic path (fun oc ->
      output_string oc (Buffer.contents hdr);
      output_string oc payload)

let load path : meta * Bin.reader =
  let raw =
    match
      (try
         let ic = open_in_bin path in
         let n = in_channel_length ic in
         let s = really_input_string ic n in
         close_in ic;
         Some s
       with Sys_error _ | End_of_file -> None)
    with
    | Some s -> s
    | None -> reject path "file missing or unreadable"
  in
  if String.length raw < header_len then
    reject path "truncated header (%d bytes)" (String.length raw);
  if String.sub raw 0 8 <> magic then reject path "bad magic";
  let v = get_le raw 8 4 in
  if v <> version then
    reject path "container version %d, this build reads %d" v version;
  let len = get_le raw 12 8 in
  let crc = get_le raw 20 4 in
  if String.length raw - header_len <> len then
    reject path "payload is %d bytes, header promises %d"
      (String.length raw - header_len) len;
  let payload = String.sub raw header_len len in
  let actual = Bin.crc32 payload in
  if actual <> crc then
    reject path "CRC mismatch (stored %08x, computed %08x)" crc actual;
  let r = Bin.reader payload in
  let m = try r_meta r with Bin.Corrupt msg -> reject path "meta: %s" msg in
  (m, r)
