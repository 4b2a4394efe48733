(** Client-side plumbing for the [straightd-proto/1] socket protocol:
    line framing, streamed-event draining, and request/terminal-reply
    pairing.  Shared by [bin/straightd-client] and the protocol
    tests. *)

type t

val connect : string -> t
(** Connect to a daemon socket.
    @raise Diag.Error code [Service_error] when nothing answers. *)

val close : t -> unit

val send : t -> Json.t -> unit
(** One request, one line.  @raise Diag.Error on a write failure. *)

val send_raw : t -> string -> unit
(** Ship an arbitrary line verbatim (protocol-abuse tests). *)

val recv : t -> Json.t option
(** Next reply line, [None] at EOF.
    @raise Diag.Error code [Proto_error] on an unparseable line. *)

val recv_line : t -> string option
(** Next raw line, [None] at EOF. *)

val wait : ?on_event:(Json.t -> unit) -> t ->
  id:string -> Json.t
(** Read replies until the terminal ["result"]/["error"] for [id],
    feeding each ["event"] to [on_event].  Replies for other ids are
    skipped.  @raise Diag.Error if the connection dies first. *)

val request : ?on_event:(Json.t -> unit) -> t ->
  Json.t -> Json.t
(** [send] then [wait] on the request's own ["id"] (default ["-"]). *)
