(* Cycle accounting (CPI stack): the engine attributes every simulated
   cycle to exactly one bucket, and the stack travels as JSON through
   [cpi_to_json]/[cpi_of_json]. *)

type cpi_stack = {
  base : int;
  frontend : int;
  branch_squash : int;
  memory : int;
  structural : int;
}

let empty_cpi =
  { base = 0; frontend = 0; branch_squash = 0; memory = 0; structural = 0 }

let cpi_total c = c.base + c.frontend + c.branch_squash + c.memory + c.structural

let cpi_to_assoc c =
  [ ("base", c.base);
    ("frontend", c.frontend);
    ("branch_squash", c.branch_squash);
    ("memory", c.memory);
    ("structural", c.structural) ]

let cpi_sub a b =
  { base = a.base - b.base;
    frontend = a.frontend - b.frontend;
    branch_squash = a.branch_squash - b.branch_squash;
    memory = a.memory - b.memory;
    structural = a.structural - b.structural }

(* Mutable accumulator used by the engine's per-cycle classifier. *)
type bucket = Base | Frontend | Branch_squash | Memory | Structural

type cpi_acc = {
  mutable acc_base : int;
  mutable acc_frontend : int;
  mutable acc_branch : int;
  mutable acc_memory : int;
  mutable acc_structural : int;
}

let fresh_acc () =
  { acc_base = 0; acc_frontend = 0; acc_branch = 0; acc_memory = 0;
    acc_structural = 0 }

let charge acc = function
  | Base -> acc.acc_base <- acc.acc_base + 1
  | Frontend -> acc.acc_frontend <- acc.acc_frontend + 1
  | Branch_squash -> acc.acc_branch <- acc.acc_branch + 1
  | Memory -> acc.acc_memory <- acc.acc_memory + 1
  | Structural -> acc.acc_structural <- acc.acc_structural + 1

let freeze acc =
  { base = acc.acc_base;
    frontend = acc.acc_frontend;
    branch_squash = acc.acc_branch;
    memory = acc.acc_memory;
    structural = acc.acc_structural }

let save_acc b acc =
  Bin.w_int b acc.acc_base;
  Bin.w_int b acc.acc_frontend;
  Bin.w_int b acc.acc_branch;
  Bin.w_int b acc.acc_memory;
  Bin.w_int b acc.acc_structural

let load_acc r acc =
  acc.acc_base <- Bin.r_int r;
  acc.acc_frontend <- Bin.r_int r;
  acc.acc_branch <- Bin.r_int r;
  acc.acc_memory <- Bin.r_int r;
  acc.acc_structural <- Bin.r_int r

(* ---------- JSON ---------- *)

(* The codec lives in lib/json; this alias is kept only because
   stackbench/ names it [Ooo_common.Stats.Json] and BENCHMARK.json
   freezes that directory.  Everything else uses [Json]. *)
module Json = Json

let cpi_to_json c =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (cpi_to_assoc c))

let cpi_of_json j =
  { base = Json.int "base" j;
    frontend = Json.int "frontend" j;
    branch_squash = Json.int "branch_squash" j;
    memory = Json.int "memory" j;
    structural = Json.int "structural" j }

let mix_to_json mix = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) mix)

let mix_of_json = function
  | Json.Obj kv as j -> List.map (fun (k, _) -> (k, Json.int k j)) kv
  | _ -> Json.fail "mix must be an object"
