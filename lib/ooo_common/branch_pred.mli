(** Branch direction predictors — gshare (Table I: 10-bit global history,
    32 K entries) and an 8-component TAGE (Fig. 14) — plus the return
    address stack.  Direct branch/jump targets are assumed to hit a
    perfect BTB; returns are predicted by the RAS. *)

type t = {
  predict : int -> bool;          (** pc -> predicted taken? *)
  update : int -> bool -> unit;   (** pc -> actual outcome *)
  save : Buffer.t -> unit;        (** serialize tables + history *)
  load : Bin.reader -> unit;
  (** inverse of [save] into a fresh predictor of the same kind and
      geometry.  @raise Bin.Corrupt on malformed input. *)
}

val gshare : ?history_bits:int -> ?entries:int -> unit -> t
val tage : unit -> t
val make : Params.predictor_kind -> t

(** Return-address stack with O(1) save/restore of the top-of-stack
    pointer for misprediction recovery.  Wrong-path pushes can still
    overwrite entries, as in real hardware. *)
module Ras : sig
  type t

  val create : ?depth:int -> unit -> t
  val push : t -> int -> unit
  val empty : int
  (** What {!pop} returns for an empty stack (no return address is
      negative). *)

  val pop : t -> int
  val save : t -> int
  val restore : t -> int -> unit

  val save_full : Buffer.t -> t -> unit
  (** Checkpointing: serialize the whole stack plus the pointer (unlike
      {!save}, which captures only the pointer for misprediction
      recovery). *)

  val load_full : Bin.reader -> t -> unit
  (** @raise Bin.Corrupt on malformed input or a depth mismatch. *)
end
