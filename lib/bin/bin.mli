(** Compact binary codec of every checkpoint: the ISS state
    ([Iss.Machine.save]), the engine image and the warmed tables.  It
    depends on nothing, so each layer encodes its own state next to its
    type.

    Writers append to a [Buffer.t]; readers consume a string through a
    mutable cursor and raise {!Corrupt} on any malformed input (short
    reads, overlong varints, bad tags), so callers can translate every
    decoding failure into one structured diagnostic instead of a crash.

    Integers are LEB128-encoded over their unsigned 64-bit image, so the
    full OCaml [int] range (negatives included) round-trips exactly and
    typical small counters cost one byte.  Register and memory words
    ({!w_int32}) are fixed 4-byte little-endian. *)

exception Corrupt of string

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with the formatted message. *)

type reader = { data : string; mutable pos : int }

val reader : ?pos:int -> string -> reader

val remaining : reader -> int

(* writers *)
val w_int : Buffer.t -> int -> unit
val w_i64 : Buffer.t -> int64 -> unit
val w_int32 : Buffer.t -> int32 -> unit
val w_bool : Buffer.t -> bool -> unit
val w_string : Buffer.t -> string -> unit
val w_bytes : Buffer.t -> Bytes.t -> unit
val w_int_array : Buffer.t -> int array -> unit
val w_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

(* readers (exact inverses; raise {!Corrupt} on malformed input) *)
val r_int : reader -> int
val r_i64 : reader -> int64
val r_int32 : reader -> int32
val r_bool : reader -> bool
val r_string : reader -> string
val r_int_array : reader -> int array
val r_list : reader -> (reader -> 'a) -> 'a list

val r_int_array_into : reader -> int array -> unit
(** Read an int array and blit it into an existing array of the same
    length.  @raise Corrupt on a length mismatch. *)

val r_bytes_into : reader -> Bytes.t -> unit
(** Same for a byte buffer. *)

val expect_end : reader -> unit
(** @raise Corrupt unless the cursor consumed the whole input. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3 polynomial) of the whole string, as a
    nonnegative int. *)
