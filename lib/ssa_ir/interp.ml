(* Reference interpreter for the SSA IR.

   This is the semantic oracle: a MiniC program must produce the same
   console output when (a) interpreted here, (b) compiled to STRAIGHT and
   run on the STRAIGHT ISS, and (c) compiled to RV32IM and run on the
   RISC-V ISS.  The tests exploit this three-way agreement. *)

open Ir

let fail fmt = Diag.error Diag.Interp_error fmt

type state = {
  mem : (int, int32) Hashtbl.t;       (* word-addressed *)
  console : Buffer.t;
  globals : (string, int) Hashtbl.t;  (* symbol -> byte address *)
  funcs : (string, func) Hashtbl.t;
  mutable sp : int;
  mutable steps : int;
  max_steps : int;
}

let read_mem st addr =
  if addr land 3 <> 0 then fail "unaligned load at 0x%x" addr;
  match Hashtbl.find_opt st.mem (addr lsr 2) with
  | Some v -> v
  | None -> 0l

let write_mem st addr v =
  if addr land 3 <> 0 then fail "unaligned store at 0x%x" addr;
  if addr = Assembler.Layout.mmio_putint then
    Buffer.add_string st.console (Printf.sprintf "%ld\n" v)
  else if addr = Assembler.Layout.mmio_putchar then
    Buffer.add_char st.console (Char.chr (Int32.to_int v land 0xFF))
  else Hashtbl.replace st.mem (addr lsr 2) v

let rec call st (f : func) (args : int32 list) : int32 =
  let values = Array.make (max f.nvalues 1) 0l in
  List.iteri (fun i a -> if i < f.nparams then values.(i) <- a) args;
  let frame_base = st.sp - f.frame_bytes in
  st.sp <- frame_base;
  let eval = function Const c -> c | Val v -> values.(v) in
  let by_id = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace by_id b.bid b) f.blocks;
  let rec run_block (b : block) (came_from : block_id option) : int32 =
    st.steps <- st.steps + 1;
    if st.steps > st.max_steps then fail "interpreter step budget exceeded";
    (* phis evaluate simultaneously against the incoming edge *)
    let phi_updates =
      List.filter_map
        (fun (v, inst) ->
           match inst, came_from with
           | Phi arms, Some pred ->
             (match List.assoc_opt pred arms with
              | Some op -> Some (v, eval op)
              | None -> fail "%s: phi %%%d has no arm for bb%d" f.name v pred)
           | Phi _, None -> fail "%s: phi in entry block" f.name
           | _ -> None)
        b.insts
    in
    List.iter (fun (v, x) -> values.(v) <- x) phi_updates;
    List.iter
      (fun (v, inst) ->
         match inst with
         | Phi _ -> ()
         | Bin (op, a, x) -> values.(v) <- eval_binop op (eval a) (eval x)
         | Cmp (op, a, x) ->
           values.(v) <- (if eval_cmpop op (eval a) (eval x) then 1l else 0l)
         | Load (a, o) ->
           values.(v) <- read_mem st ((Int32.to_int (eval a) + o) land 0xFFFFFFFF)
         | Store (x, a, o) ->
           let value = eval x in
           write_mem st ((Int32.to_int (eval a) + o) land 0xFFFFFFFF) value;
           values.(v) <- value
         | Call (g, cargs) ->
           let argv = List.map eval cargs in
           (match g with
            | "putint" ->
              (match argv with
               | [ x ] ->
                 write_mem st Assembler.Layout.mmio_putint x;
                 values.(v) <- x
               | _ -> fail "putint arity")
            | "putchar" ->
              (match argv with
               | [ x ] ->
                 write_mem st Assembler.Layout.mmio_putchar x;
                 values.(v) <- x
               | _ -> fail "putchar arity")
            | _ ->
              (match Hashtbl.find_opt st.funcs g with
               | Some callee -> values.(v) <- call st callee argv
               | None -> fail "call to unknown function %s" g))
         | Frame_addr o -> values.(v) <- Int32.of_int (frame_base + o)
         | Global_addr s ->
           (match Hashtbl.find_opt st.globals s with
            | Some a -> values.(v) <- Int32.of_int a
            | None -> fail "unknown global %s" s))
      b.insts;
    match b.term with
    | Ret op -> eval op
    | Br t -> run_block (Hashtbl.find by_id t) (Some b.bid)
    | Cond_br (c, t1, t2) ->
      let t = if eval c <> 0l then t1 else t2 in
      run_block (Hashtbl.find by_id t) (Some b.bid)
  in
  let result = run_block (entry_block f) None in
  st.sp <- frame_base + f.frame_bytes;
  result

(* Final state of an interpreted program: console output, main's return
   value, and a word-granular reader over the final memory (used by the
   differential fuzzer to compare global data against the ISS runs). *)
type snapshot = {
  output : string;
  ret : int32;
  read_word : int -> int32;      (* byte address -> word, 0 if untouched *)
  global_addr : string -> int option;
}

let run_snapshot ?(max_steps = 50_000_000) (p : program) : snapshot =
  let st =
    { mem = Hashtbl.create 1024;
      console = Buffer.create 256;
      globals = Hashtbl.create 16;
      funcs = Hashtbl.create 16;
      sp = Assembler.Layout.stack_top;
      steps = 0;
      max_steps }
  in
  (* lay out global data exactly like the backends: in declaration order
     from data_base *)
  let cursor = ref Assembler.Layout.data_base in
  List.iter
    (fun d ->
       Hashtbl.replace st.globals d.sym !cursor;
       List.iteri
         (fun i w -> Hashtbl.replace st.mem ((!cursor + (4 * i)) lsr 2) w)
         d.words;
       cursor := !cursor + (4 * List.length d.words) + d.extra_bytes)
    p.data;
  List.iter (fun f -> Hashtbl.replace st.funcs f.name f) p.funcs;
  let main =
    match Hashtbl.find_opt st.funcs "main" with
    | Some f -> f
    | None -> fail "no main"
  in
  let ret = call st main [] in
  { output = Buffer.contents st.console;
    ret;
    read_word =
      (fun addr ->
         match Hashtbl.find_opt st.mem (addr lsr 2) with
         | Some v -> v
         | None -> 0l);
    global_addr = (fun sym -> Hashtbl.find_opt st.globals sym) }

(* [run p] interprets the program from [main] and returns (console output,
   main's return value). *)
let run ?max_steps (p : program) : string * int32 =
  let s = run_snapshot ?max_steps p in
  (s.output, s.ret)
