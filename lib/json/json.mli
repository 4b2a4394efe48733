(** The one JSON codec: a minimal tree, a printer, a parser, and field
    decoders.  Every document the system reads or writes goes through
    it — sweep records, stats and bench reports, sample plans and
    interval results, snapshot metadata, daemon lines, and the lint,
    translation-validation and fuzz reports.  It depends on no other
    library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** [indent] defaults to [true] (pretty-printed, trailing newline).  A
    finite [Float] always prints with a [.] or an exponent, so it reads
    back as a [Float]. *)

exception Parse_error of string
(** Malformed text, or a document of the wrong shape (the decoders
    below). *)

val of_string : string -> t
(** Numbers follow RFC 8259 ([-]int[.frac][exp], no leading zeros); one
    without fraction or exponent that fits an [int] is an [Int].
    @raise Parse_error on malformed input, or on arrays and objects
    nested more than 512 deep. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val get_float : t option -> float option
(** Numeric coercion ([Int] or [Float]). *)

val get_int : t option -> int option
val get_string : t option -> string option
val get_list : t option -> t list option

(** {2 Field decoders}

    [int name j] reads field [name] of object [j].  A missing field
    raises [Parse_error "missing field \"name\""], a present field of
    another type [Parse_error "field \"name\" must be an integer"] (a
    number, a string, a boolean). *)

val field : string -> t -> t
val int : string -> t -> int

val float : string -> t -> float
(** Accepts [Int], like {!get_float}. *)

val string : string -> t -> string
val bool : string -> t -> bool

val opt : (string -> t -> 'a) -> string -> t -> 'a option
(** [None] when the field is missing or [null]; otherwise the decoder's
    value, so a present field of the wrong type still raises. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise [Parse_error] with a formatted message. *)
