(** Normalized dynamic-instruction records.

    The functional simulators retire instructions in program order and emit
    one {!uop} per retired instruction; the cycle-level models replay this
    correct-path trace (oracle outcomes for branches and memory addresses)
    while fetching wrong-path instructions from the static image. *)

type fu_class =
  | FU_alu          (** 1-cycle integer op (incl. RMOV and NOP slots) *)
  | FU_mul
  | FU_div
  | FU_branch       (** conditional branch / jump resolution unit *)
  | FU_load
  | FU_store

type ctrl =
  | Not_ctrl
  | Cond of { taken : bool; target : int }
      (** conditional branch; [target] is the taken destination *)
  | Uncond of { target : int; is_call : bool; is_ret : bool }
      (** [target = -1] when statically unknown (indirect/return) *)

type uop = {
  pc : int;
  fu : fu_class;
  srcs_dist : int array;
      (** STRAIGHT dependences: source distances (zero-distance operands
          dropped).  Empty for RISC-V traces. *)
  srcs_reg : int array;
      (** RISC-V dependences: source logical registers (x0 dropped).
          Empty for STRAIGHT traces. *)
  dest_reg : int;          (** RISC-V destination; 0 = none *)
  has_dest : bool;         (** STRAIGHT: always true; RISC-V: rd <> x0 *)
  is_rmov : bool;          (** instruction-mix bucket of Fig. 15 *)
  is_nop : bool;
  is_spadd : bool;         (** SPADD: serialized in order at decode (III-B) *)
  mem_addr : int;          (** byte address for load/store; 0 otherwise *)
  ctrl : ctrl;
}

val placeholder : uop
(** A uop no program retires (pc [-1], no operands): the filler for
    empty slots and for retirements nobody asked a uop of. *)

val kind_label : uop -> string
(** The Fig. 15 bucket: ["ALU"], ["LD"], ["ST"], ["Jump+Branch"],
    ["RMOV"], or ["NOP"]. *)

(** Incremental fingerprint of a retirement stream.  Every field of
    every uop is encoded as fixed-width integers — a header word packing
    the FU class, the flags, the control variant with its
    taken/is_call/is_ret bits and both source counts, then pc,
    [dest_reg], [mem_addr], the control target and each source — and
    folded into two 63-bit multiply-xorshift lanes (version
    ["straight-trace-digest/3"]).  A step is a bijection of its lane for
    a fixed word, so changing any one field of any one uop changes the
    digest.  {!digest_add} allocates nothing and costs about as much as
    an ISS step; a stream of any length is fingerprinted in constant
    memory.  The snapshot machinery regenerates the stream from the
    workload source on restore and uses this to prove it matches the
    one the checkpoint was taken against.  It guards against a stream
    that differs by accident (compiler or ISS drift), not against an
    adversary. *)
type digest_state

val digest_init : unit -> digest_state
val digest_add : digest_state -> uop -> unit

val digest_result : digest_state -> string
(** Hex digest of the uops added so far (their count included); the
    state stays usable, so a stream can be fingerprinted at several
    prefixes in one pass. *)

(** A completed program run. *)
type run = {
  output : string;             (** MMIO console output *)
  retired : int;               (** dynamic instruction count *)
  trace : uop array;           (** empty unless tracing was requested *)
  dist_histogram : int array;  (** source-distance counts by distance;
                                   filled for STRAIGHT runs only *)
}
