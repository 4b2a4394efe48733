(* Structured diagnostics shared by every layer of the stack: an error
   code naming the failure class, a message, and machine-readable
   key/value context.  See the interface for the unification story. *)

type code =
  | Lex_error
  | Parse_error
  | Lower_error
  | Wasm_error
  | Invalid_ir
  | Interp_error
  | Codegen_error
  | Encode_error
  | Asm_error
  | Exec_error
  | Mem_unaligned
  | Mem_mmio
  | Fuel_exhausted
  | Sim_deadlock
  | Checker_divergence
  | Lint_finding
  | Config_error
  | Snapshot_error
  | Proto_error
  | Service_error

let code_name = function
  | Lex_error -> "LEX_ERROR"
  | Parse_error -> "PARSE_ERROR"
  | Lower_error -> "LOWER_ERROR"
  | Wasm_error -> "WASM_ERROR"
  | Invalid_ir -> "INVALID_IR"
  | Interp_error -> "INTERP_ERROR"
  | Codegen_error -> "CODEGEN_ERROR"
  | Encode_error -> "ENCODE_ERROR"
  | Asm_error -> "ASM_ERROR"
  | Exec_error -> "EXEC_ERROR"
  | Mem_unaligned -> "MEM_UNALIGNED"
  | Mem_mmio -> "MEM_MMIO"
  | Fuel_exhausted -> "FUEL_EXHAUSTED"
  | Sim_deadlock -> "SIM_DEADLOCK"
  | Checker_divergence -> "CHECKER_DIVERGENCE"
  | Lint_finding -> "LINT_FINDING"
  | Config_error -> "CONFIG_ERROR"
  | Snapshot_error -> "SNAPSHOT_ERROR"
  | Proto_error -> "PROTO_ERROR"
  | Service_error -> "SERVICE_ERROR"

(* Each code's successor in declaration order.  The match is exhaustive,
   so a new code fails to compile until it is chained in here, and
   [codes] (hence [of_code_name]) cannot leave one out. *)
let next = function
  | Lex_error -> Some Parse_error | Parse_error -> Some Lower_error
  | Lower_error -> Some Wasm_error | Wasm_error -> Some Invalid_ir
  | Invalid_ir -> Some Interp_error | Interp_error -> Some Codegen_error
  | Codegen_error -> Some Encode_error | Encode_error -> Some Asm_error
  | Asm_error -> Some Exec_error | Exec_error -> Some Mem_unaligned
  | Mem_unaligned -> Some Mem_mmio | Mem_mmio -> Some Fuel_exhausted
  | Fuel_exhausted -> Some Sim_deadlock | Sim_deadlock -> Some Checker_divergence
  | Checker_divergence -> Some Lint_finding | Lint_finding -> Some Config_error
  | Config_error -> Some Snapshot_error | Snapshot_error -> Some Proto_error
  | Proto_error -> Some Service_error | Service_error -> None

let codes =
  let rec from c = c :: (match next c with Some c -> from c | None -> []) in
  from Lex_error

let of_code_name name = List.find_opt (fun c -> code_name c = name) codes

(* Exit codes are grouped by failure class so scripts can branch on the
   kind of failure without parsing stderr; 1 is left to uncaught
   exceptions and 2 to usage errors, per Unix convention. *)
let exit_code = function
  | Config_error -> 2
  | Lex_error | Parse_error | Lower_error | Wasm_error | Invalid_ir
  | Codegen_error | Encode_error | Asm_error -> 3
  | Exec_error | Interp_error | Mem_unaligned | Mem_mmio -> 4
  | Fuel_exhausted -> 5
  | Sim_deadlock -> 6
  | Checker_divergence -> 7
  | Lint_finding -> 8
  | Snapshot_error -> 9
  | Proto_error | Service_error -> 10

type t = {
  code : code;
  message : string;
  context : (string * string) list;
}

exception Error of t

let make ?(context = []) code message = { code; message; context }

let error ?context code fmt =
  Format.kasprintf (fun s -> raise (Error (make ?context code s))) fmt

let to_string d =
  let ctx =
    match d.context with
    | [] -> ""
    | l ->
      Printf.sprintf " (%s)"
        (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) l))
  in
  Printf.sprintf "%s: %s%s" (code_name d.code) d.message ctx

let pp fmt d = Format.pp_print_string fmt (to_string d)

let context_dump d =
  let b = Buffer.create 256 in
  Buffer.add_string b ("code=" ^ code_name d.code ^ "\n");
  Buffer.add_string b ("message=" ^ d.message ^ "\n");
  List.iter
    (fun (k, v) -> Buffer.add_string b (k ^ "=" ^ v ^ "\n"))
    d.context;
  Buffer.contents b

(* Register a printer so an uncaught [Error] is still readable. *)
let () =
  Printexc.register_printer (function
    | Error d -> Some ("Diag.Error: " ^ to_string d)
    | _ -> None)
