(* Client-side plumbing for straightd-proto/1: connect, frame one JSON
   object per line, and collect streamed replies until the terminal
   one.  Used by bin/straightd-client and the protocol tests. *)

module J = Json

type t = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; inbuf = Buffer.create 256 }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Diag.error Diag.Service_error "connect %s: %s" path (Unix.error_message e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_raw t line =
  let line = line ^ "\n" in
  let n = String.length line in
  let rec put off =
    if off < n then
      match Unix.write_substring t.fd line off (n - off) with
      | written -> put (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> put off
      | exception Unix.Unix_error (e, _, _) ->
        Diag.error Diag.Service_error "send: %s" (Unix.error_message e)
  in
  put 0

let send t (doc : J.t) = send_raw t (J.to_string ~indent:false doc)

(* one complete line off the buffered stream, reading as needed *)
let recv_line t : string option =
  let rec take () =
    let s = Buffer.contents t.inbuf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear t.inbuf;
      Buffer.add_string t.inbuf
        (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
    | None ->
      let buf = Bytes.create 65536 in
      (match Unix.read t.fd buf 0 (Bytes.length buf) with
       | 0 -> None
       | n ->
         Buffer.add_subbytes t.inbuf buf 0 n;
         take ()
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ()
       | exception Unix.Unix_error _ -> None)
  in
  take ()

let recv t : J.t option =
  match recv_line t with
  | None -> None
  | Some line ->
    (match J.of_string line with
     | j -> Some j
     | exception J.Parse_error m ->
       Diag.error Diag.Proto_error "unparseable reply %S: %s" line m)

(* drain events until the terminal reply for [id] *)
let wait ?on_event t ~id : J.t =
  let rec go () =
    match recv t with
    | None ->
      Diag.error Diag.Service_error "daemon closed the connection mid-request"
    | Some j ->
      let jid =
        match J.get_string (J.member "id" j) with Some s -> s | None -> "-"
      in
      let ty = J.get_string (J.member "type" j) in
      if jid <> id then go () (* a straggler from an earlier request *)
      else
        match ty with
        | Some "event" ->
          (match on_event with Some f -> f j | None -> ());
          go ()
        | Some ("result" | "error") -> j
        | _ -> Diag.error Diag.Proto_error "reply without a type"
  in
  go ()

let request ?on_event t (doc : J.t) : J.t =
  let id =
    match J.get_string (J.member "id" doc) with Some s -> s | None -> "-"
  in
  send t doc;
  wait ?on_event t ~id
