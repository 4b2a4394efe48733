(** Structured diagnostics shared by every layer of the stack.

    {!Error} is the one error the toolchain and the simulators raise:
    an error {!code} naming the failure class, a human-readable message,
    and a machine-readable [(key, value)] context that callers (e.g.
    [straightsim -dump-on-error]) can persist verbatim.  Each library
    raises it where the failure is found, with the context naming the
    layer ([target=straight|riscv] from the code generators and
    encoders, [source=straight-asm|riscv-asm] from the assembly parsers,
    [iss=straight|riscv] from the ISSs), so catch sites match codes, the
    command-line drivers report every failure uniformly and exit with a
    {!exit_code} distinct per failure class, and the daemon answers a
    failed job with the same code and context.  This library depends on
    nothing. *)

(** The failure class.  Codes are stable identifiers: tools may match on
    {!code_name} output. *)
type code =
  | Lex_error           (** MiniC lexer *)
  | Parse_error         (** MiniC / assembly parsers *)
  | Lower_error         (** MiniC -> SSA lowering *)
  | Wasm_error          (** WASM-subset validation / lowering *)
  | Invalid_ir          (** SSA validation *)
  | Interp_error        (** SSA interpreter *)
  | Codegen_error       (** STRAIGHT / RISC-V back ends *)
  | Encode_error        (** ISA binary encoders *)
  | Asm_error           (** assembler / linker *)
  | Exec_error          (** ISS: illegal instruction, PC out of text *)
  | Mem_unaligned       (** ISS memory: unaligned word access *)
  | Mem_mmio            (** ISS memory: unknown MMIO load/store *)
  | Fuel_exhausted      (** ISS: [max_insns] budget overrun *)
  | Sim_deadlock        (** cycle model: watchdog / non-convergence *)
  | Checker_divergence  (** lockstep golden-model checker violation *)
  | Lint_finding        (** static verifier finding on a linked image *)
  | Config_error        (** invalid simulation configuration *)
  | Snapshot_error      (** checkpoint file corrupt / truncated /
                            version- or workload-mismatched *)
  | Proto_error         (** malformed [straightd] daemon request /
                            protocol violation on the wire *)
  | Service_error       (** [straightd] daemon-level failure (socket
                            bind, job scheduler, worker loss) *)

val code_name : code -> string
(** Stable upper-case identifier, e.g. ["SIM_DEADLOCK"]. *)

val codes : code list
(** Every code, in declaration order. *)

val of_code_name : string -> code option
(** Inverse of {!code_name} ([None] for any other string): how a client
    maps an error reply's code back to an exit code. *)

val exit_code : code -> int
(** Process exit code for command-line drivers.  Distinct per failure
    class: 2 usage/config, 3 compile-family, 4 execution/memory faults,
    5 fuel exhaustion, 6 simulator deadlock, 7 checker divergence,
    8 static-lint finding, 9 snapshot rejected, 10 daemon
    protocol/service failure. *)

type t = {
  code : code;
  message : string;
  context : (string * string) list;
      (** machine-readable key/value pairs, most significant first *)
}

exception Error of t

val make : ?context:(string * string) list -> code -> string -> t

val error : ?context:(string * string) list -> code ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error ?context code fmt ...] raises {!Error} with the formatted
    message. *)

val to_string : t -> string
(** One-line rendering: ["CODE: message (k=v, ...)"]. *)

val pp : Format.formatter -> t -> unit

val context_dump : t -> string
(** Machine-readable dump: one [key=value] line per entry, preceded by
    [code=] and [message=] lines — the format written by
    [straightsim -dump-on-error]. *)
