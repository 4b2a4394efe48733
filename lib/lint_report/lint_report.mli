(** Shared reporting vocabulary for the static binary verifiers
    ([Straight_lint] and [Riscv_lint]) and the translation validator: a
    finding record with severity, a formatter, and the report as a
    [Json.t] so CI can archive lint reports as build artifacts. *)

type severity = Error | Warning | Info

type finding = {
  pc : int;            (** byte address of the offending instruction *)
  check : string;      (** short machine-stable name of the check *)
  severity : severity;
  message : string;
  func : string option;
      (** enclosing function, when the check knows it (the translation
          validator always does; the binary linters do not) *)
}

val severity_name : severity -> string
(** ["error"] / ["warning"] / ["info"]. *)

val finding :
  ?severity:severity -> ?func:string -> pc:int -> check:string -> string ->
  finding
(** Build a finding; [severity] defaults to [Error], [func] to [None]. *)

val pp_finding : Format.formatter -> finding -> unit
(** One-line rendering: ["0x<pc>: [<check>] <message>"]. *)

val finding_to_string : finding -> string

val errors : finding list -> finding list
(** Just the [Error]-severity findings (the ones that fail a build). *)

val finding_json : finding -> Json.t
(** One finding as a JSON object: [pc], [check], [severity], [message],
    then [func] when known. *)

val report_json : ?schema:string -> (string * finding list) list -> Json.t
(** A whole lint run, one labeled entry per linted image:
    [{ "findings_total": N, "errors": N, "warnings": N, "infos": N,
       "images": [{ "label", "findings" }] }], prefixed with a
    ["schema"] key when [?schema] is given.  Extensions over the
    original shape are additive, so old readers keep working. *)
