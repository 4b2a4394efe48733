(* Benchmark programs, written in MiniC (see DESIGN.md substitution notes:
   these re-implement the algorithmic structure of Dhrystone 2.1 and
   CoreMark, the two benchmarks of Section V-A, in our C subset).

   Each workload is a function of the iteration count so the benches can
   trade simulation time against measurement stability; results are
   reported as cycles per iteration, matching the paper's use of relative
   performance. *)

type t = {
  name : string;
  source : string;        (* MiniC source text *)
  iterations : int;       (* iteration count baked into the source *)
}

(* ---------- Dhrystone-like ----------

   Mirrors Dhrystone 2.1's structure: a record type (modelled as a 4-word
   array slice), Proc1..Proc8-style procedures doing record assignment,
   parameter passing, string comparison over 30-char buffers, and the
   characteristic mix of assignments / control / procedure calls. *)

let dhrystone_source n_runs =
  Printf.sprintf
    {|
// Dhrystone-like integer benchmark (records, strings, calls).
int glob_arr1[50];
int glob_arr2[50];
int record_a[8];    // { discr, enum, int_comp, str30 ptr-ish ... }
int record_b[8];
int str1[30];
int str2[30];
int int_glob = 0;
int bool_glob = 0;
int char1_glob = 0;
int char2_glob = 0;
int checksum = 0;

int func1(int c1, int c2) {
  int c = c1;
  if (c != c2) return 0;
  char1_glob = c;
  return 1;
}

int func2(int *s1, int *s2) {
  int i = 1;
  while (i < 2) {
    if (func1(s1[i], s2[i + 1])) { i += 1; }
    else { i += 3; }
  }
  int cmp = 0;
  for (int k = 0; k < 30; k++) {
    if (s1[k] != s2[k]) { cmp = s1[k] - s2[k]; break; }
  }
  if (cmp > 0) { int_glob = i; return 1; }
  return 0;
}

int func3(int enum_par) {
  if (enum_par == 2) return 1;
  return 0;
}

int proc8(int *a1, int *a2, int v1, int v2) {
  int loc = v1 + 5;
  a1[loc] = v2;
  a1[loc + 1] = a1[loc];
  a1[loc + 30] = loc;
  for (int i = loc; i <= loc + 1; i++) a2[loc + i - loc] = loc;
  a2[loc + 20] = a1[loc];
  int_glob = 5;
  return 0;
}

int proc7(int v1, int v2) { return v1 + 2 + v2; }

int proc6(int enum_par) {
  int out = enum_par;
  if (!func3(enum_par)) out = 3;
  if (enum_par == 0) out = 0;
  if (enum_par == 1) { if (int_glob > 100) out = 0; else out = 3; }
  if (enum_par == 2) out = 1;
  if (enum_par == 4) out = 2;
  return out;
}

int proc5() { char1_glob = 'A'; bool_glob = 0; return 0; }
int proc4() {
  int b = char1_glob == 'A';
  bool_glob = b | bool_glob;
  char2_glob = 'B';
  return 0;
}

int proc3(int *rec) {
  if (rec[0] != 0) rec[4] = record_a[4];
  rec[3] = proc7(10, int_glob);
  return 0;
}

int proc2(int in) {
  int loc = in + 10;
  int done = 0;
  while (!done) {
    if (char1_glob == 'A') {
      loc -= 1;
      in = loc - int_glob;
      done = 1;
    }
  }
  return in;
}

int proc1(int *rec, int *next) {
  for (int i = 0; i < 8; i++) next[i] = record_a[i];
  rec[2] = 5;
  next[2] = rec[2];
  next[1] = rec[1];
  proc3(next);
  if (next[0] == 0) {
    next[2] = 6;
    next[1] = proc6(rec[1]);
    next[3] = record_a[3];
    next[2] = proc7(next[2], 10);
  }
  else {
    for (int i = 0; i < 8; i++) rec[i] = next[i];
  }
  return 0;
}

int main() {
  // initialization, as dhrystone's main
  record_a[0] = 0; record_a[1] = 2; record_a[2] = 40;
  for (int i = 0; i < 30; i++) {
    str1[i] = 'D' + (i %% 20);
    str2[i] = 'D' + (i %% 20);
  }
  str2[5] = 'X';
  for (int run = 0; run < %d; run++) {
    proc5();
    proc4();
    int int1 = 2;
    int int2 = 3;
    int int3 = 0;
    int enum_loc = 1;
    bool_glob = !func2(str1, str2);
    while (int1 < int2) {
      int3 = 5 * int1 - int2;
      int3 = proc7(int1, int3);
      int1 += 1;
    }
    proc8(glob_arr1, glob_arr2, int1, int3);
    proc1(record_a, record_b);
    for (int ci = 'A'; ci <= char2_glob; ci++) {
      if (enum_loc == func1(ci, 'C')) enum_loc = proc6(0);
    }
    int3 = int2 * int1;
    int2 = int3 / int1;
    int2 = 7 * (int3 - int2) - int1;
    int1 = proc2(int1);
    checksum += int1 + int2 + int3 + int_glob + bool_glob;
  }
  putint(checksum);
  return 0;
}
|}
    n_runs

(* ---------- CoreMark-like ----------

   CoreMark's three kernels: linked-list processing (here with index-linked
   nodes), matrix multiply with bit manipulation, and a state machine over
   an input string, all tied together by a CRC-16. *)

let coremark_source n_runs =
  Printf.sprintf
    {|
// CoreMark-like benchmark: list / matrix / state machine + crc16.
int list_next[64];
int list_data[64];
int matrix_a[64];
int matrix_b[64];
int matrix_c[64];
int fsm_input[48];

int crc16(int value, int crc) {
  for (int k = 0; k < 16; k++) {
    int bit = (value >> k) & 1;
    int msb = (crc >> 15) & 1;
    crc = (crc << 1) & 0xFFFF;
    crc = crc | bit;
    if (msb) crc = crc ^ 0x1021;
  }
  return crc;
}

// --- list kernel: find, reverse, re-find ---
int list_find(int head, int key) {
  int cur = head;
  while (cur >= 0) {
    if (list_data[cur] == key) return cur;
    cur = list_next[cur];
  }
  return -1;
}

int list_reverse(int head) {
  int prev = 0 - 1;
  int cur = head;
  while (cur >= 0) {
    int nxt = list_next[cur];
    list_next[cur] = prev;
    prev = cur;
    cur = nxt;
  }
  return prev;
}

int bench_list(int seed) {
  int head = 0;
  for (int i = 0; i < 63; i++) list_next[i] = i + 1;
  list_next[63] = -1;
  for (int i = 0; i < 64; i++) list_data[i] = (i * seed + 3) %% 97;
  int crc = 0;
  for (int k = 0; k < 8; k++) {
    int idx = list_find(head, (k * seed) %% 97);
    crc = crc16(idx, crc);
  }
  head = list_reverse(head);
  head = list_reverse(head);
  int cur = head;
  while (cur >= 0) {
    crc = crc16(list_data[cur], crc);
    cur = list_next[cur];
  }
  return crc;
}

// --- matrix kernel: mul, add constant, bit ops ---
int bench_matrix(int seed) {
  for (int i = 0; i < 64; i++) {
    matrix_a[i] = (i * seed) %% 31 + 1;
    matrix_b[i] = (i + seed) %% 29 + 1;
  }
  // C = A * B (8x8)
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++) {
      int s = 0;
      for (int k = 0; k < 8; k++) s += matrix_a[i * 8 + k] * matrix_b[k * 8 + j];
      matrix_c[i * 8 + j] = s;
    }
  int crc = 0;
  for (int i = 0; i < 64; i++) {
    matrix_c[i] = (matrix_c[i] + seed) ^ (matrix_c[i] >> 3);
    crc = crc16(matrix_c[i] & 0xFFFF, crc);
  }
  return crc;
}

// --- state machine kernel: scan "digits/operators" classifying tokens ---
int bench_fsm(int seed) {
  for (int i = 0; i < 48; i++) {
    int r = (i * seed + 7) %% 10;
    if (r < 5) fsm_input[i] = '0' + r;
    else if (r < 7) fsm_input[i] = '+';
    else if (r < 8) fsm_input[i] = '.';
    else fsm_input[i] = ',';
  }
  int state = 0;     // 0=start 1=int 2=float 3=sep 4=invalid
  int counts0 = 0; int counts1 = 0; int counts2 = 0;
  int transitions = 0;
  for (int i = 0; i < 48; i++) {
    int c = fsm_input[i];
    int old = state;
    if (state == 0) {
      if (c >= '0' && c <= '9') state = 1;
      else if (c == '+') state = 3;
      else if (c == '.') state = 2;
      else state = 4;
    }
    else if (state == 1) {
      if (c >= '0' && c <= '9') { counts1 += 1; }
      else if (c == '.') state = 2;
      else state = 0;
    }
    else if (state == 2) {
      if (c >= '0' && c <= '9') { counts2 += 1; }
      else state = 0;
    }
    else { state = 0; counts0 += 1; }
    if (old != state) transitions += 1;
  }
  int crc = crc16(counts0, 0);
  crc = crc16(counts1, crc);
  crc = crc16(counts2, crc);
  crc = crc16(transitions, crc);
  return crc;
}

int main() {
  int crc = 0;
  for (int run = 0; run < %d; run++) {
    int seed = (run * 13 + 7) %% 251 + 1;
    crc = crc16(bench_list(seed), crc);
    crc = crc16(bench_matrix(seed), crc);
    crc = crc16(bench_fsm(seed), crc);
  }
  putint(crc);
  return 0;
}
|}
    n_runs

(* ---------- microkernels (tests / examples / ablations) ---------- *)

let fib_source n =
  Printf.sprintf
    {| int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
       int main() { putint(fib(%d)); } |}
    n

let iota_source n =
  Printf.sprintf
    {|
int arr[%d];
int iota(int *a, int n) {
  int i;
  for (i = 0; i < n; i++) a[i] = i;
  return 0;
}
int main() {
  iota(arr, %d);
  int s = 0;
  for (int i = 0; i < %d; i++) s += arr[i];
  putint(s);
}
|}
    n n n

let sort_source n =
  Printf.sprintf
    {|
int data[%d];
int main() {
  for (int i = 0; i < %d; i++) data[i] = (i * 7919 + 13) %% 1000;
  for (int i = 0; i < %d; i++)
    for (int j = 0; j + 1 < %d - i; j++)
      if (data[j] > data[j + 1]) {
        int t = data[j];
        data[j] = data[j + 1];
        data[j + 1] = t;
      }
  int s = 0;
  for (int i = 0; i < %d; i++) s += data[i] * i;
  putint(s);
}
|}
    n n n n n

(* recursive quicksort: deep call tree, stresses the calling convention *)
let quicksort_source n =
  Printf.sprintf
    {|
int data[%d];
int partition(int lo, int hi) {
  int pivot = data[hi];
  int i = lo - 1;
  for (int j = lo; j < hi; j++) {
    if (data[j] < pivot) {
      i++;
      int t = data[i]; data[i] = data[j]; data[j] = t;
    }
  }
  int t = data[i + 1]; data[i + 1] = data[hi]; data[hi] = t;
  return i + 1;
}
int qsort(int lo, int hi) {
  if (lo < hi) {
    int p = partition(lo, hi);
    qsort(lo, p - 1);
    qsort(p + 1, hi);
  }
  return 0;
}
int main() {
  int n = %d;
  for (int i = 0; i < n; i++) data[i] = (i * 6007 + 91) %% 811;
  qsort(0, n - 1);
  int bad = 0;
  int sum = 0;
  for (int i = 1; i < n; i++) {
    if (data[i - 1] > data[i]) bad++;
    sum += data[i] * (i & 7);
  }
  putint(bad);
  putint(sum);
}
|}
    n n

(* memory-intensive pointer chase: exercises the cache hierarchy *)
let pointer_chase_source n_nodes n_hops =
  Printf.sprintf
    {|
int next[%d];
int main() {
  int n = %d;
  // a permutation with large stride to defeat the stream prefetcher
  for (int i = 0; i < n; i++) next[i] = (i + 1667) %% n;
  int p = 0;
  int sum = 0;
  for (int h = 0; h < %d; h++) { p = next[p]; sum += p; }
  putint(sum);
}
|}
    n_nodes n_nodes n_hops

(* STREAM-like phased loop kernel, sized by its outer iteration count.
   Each outer iteration runs four phases with different bottlenecks —
   copy, scale, reduce, triad (plus a strided pass that defeats the
   prefetcher) — so the CPI varies phase to phase, which is what makes
   it the interval-sampling showcase: one outer iteration retires
   ~100k instructions, so iterations=100 reaches the ~10M-instruction
   scale that only completes under -sample. *)
let stream_source n_iters =
  Printf.sprintf
    {|
int a[4096];
int b[4096];
int c[4096];
int main() {
  int n = 4096;
  for (int i = 0; i < n; i++) { a[i] = i; b[i] = 2 * i + 1; c[i] = 0; }
  int checksum = 0;
  for (int it = 0; it < %d; it++) {
    // phase 1: copy
    for (int i = 0; i < n; i++) c[i] = a[i];
    // phase 2: scale
    for (int i = 0; i < n; i++) b[i] = 3 * c[i] + it;
    // phase 3: reduce (loop-carried dependence)
    int s = 0;
    for (int i = 0; i < n; i++) s += a[i] + b[i];
    // phase 4: triad
    for (int i = 0; i < n; i++) a[i] = b[i] + 2 * c[i];
    // phase 5: strided gather (defeats the stream prefetcher)
    int p = it & 1023;
    for (int i = 0; i < n; i += 4) { p = (p + 1667) & 4095; s += a[p]; }
    checksum += s & 0xFFFF;
  }
  putint(checksum);
}
|}
    n_iters

let dhrystone ?(iterations = 300) () =
  { name = "dhrystone"; source = dhrystone_source iterations; iterations }

let coremark ?(iterations = 8) () =
  { name = "coremark"; source = coremark_source iterations; iterations }

let fib ?(n = 18) () = { name = "fib"; source = fib_source n; iterations = 1 }
let iota ?(n = 64) () = { name = "iota"; source = iota_source n; iterations = 1 }
let sort ?(n = 48) () = { name = "sort"; source = sort_source n; iterations = 1 }

let quicksort ?(n = 64) () =
  { name = "quicksort"; source = quicksort_source n; iterations = 1 }

let pointer_chase ?(nodes = 8192) ?(hops = 20000) () =
  { name = "pointer_chase";
    source = pointer_chase_source nodes hops;
    iterations = 1 }

let stream ?(iterations = 100) () =
  { name = "stream"; source = stream_source iterations; iterations }

(* ---------- WASM kernels ----------

   WAT sources exercising the stack-machine front-end (lib/wasm): the
   operand stack lowers to SSA values, so deep stacks become long live
   ranges — a distance-pressure profile MiniC code never produces. *)

let wasm_sieve_source limit =
  Printf.sprintf
    {|;; sieve of Eratosthenes over [2, %d]: composite flags live in
;; linear memory (one word per candidate), prints the prime count.
(module
  (import "env" "putint" (func $putint (param i32)))
  (memory 1)
  (func (export "main") (result i32)
    (local $i i32) (local $j i32) (local $count i32)
    (local.set $i (i32.const 2))
    (block $sieved
      (loop $outer
        (br_if $sieved
          (i32.gt_s (i32.mul (local.get $i) (local.get $i)) (i32.const %d)))
        (block $composite
          (br_if $composite (i32.load (i32.shl (local.get $i) (i32.const 2))))
          (local.set $j (i32.mul (local.get $i) (local.get $i)))
          (loop $mark
            (block $marked
              (br_if $marked (i32.gt_s (local.get $j) (i32.const %d)))
              (i32.store (i32.shl (local.get $j) (i32.const 2)) (i32.const 1))
              (local.set $j (i32.add (local.get $j) (local.get $i)))
              (br $mark))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $outer)))
    (local.set $i (i32.const 2))
    (block $counted
      (loop $count_loop
        (br_if $counted (i32.gt_s (local.get $i) (i32.const %d)))
        (local.set $count
          (i32.add (local.get $count)
                   (i32.eqz (i32.load (i32.shl (local.get $i) (i32.const 2))))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $count_loop)))
    (call $putint (local.get $count))
    (i32.const 0)))
|}
    limit limit limit limit

let wasm_crc32_source nbytes =
  Printf.sprintf
    {|;; bitwise CRC-32 (poly 0xEDB88320) over %d LCG-generated bytes
;; staged in linear memory; prints the final checksum.
(module
  (import "env" "putint" (func $putint (param i32)))
  (memory 1)
  (global $poly i32 (i32.const 0xEDB88320))
  (func $crc_byte (param $crc i32) (param $b i32) (result i32)
    (local $k i32)
    (local.set $crc (i32.xor (local.get $crc) (local.get $b)))
    (block $done
      (loop $bits
        (br_if $done (i32.ge_s (local.get $k) (i32.const 8)))
        (local.set $crc
          (i32.xor
            (i32.shr_u (local.get $crc) (i32.const 1))
            (i32.and
              (i32.sub (i32.const 0) (i32.and (local.get $crc) (i32.const 1)))
              (global.get $poly))))
        (local.set $k (i32.add (local.get $k) (i32.const 1)))
        (br $bits)))
    (local.get $crc))
  (func (export "main") (result i32)
    (local $i i32) (local $crc i32) (local $x i32)
    (local.set $crc (i32.const -1))
    (local.set $x (i32.const 12345))
    (block $filled
      (loop $fill
        (br_if $filled (i32.ge_s (local.get $i) (i32.const %d)))
        (local.set $x
          (i32.add (i32.mul (local.get $x) (i32.const 1103515245))
                   (i32.const 12345)))
        (i32.store (i32.shl (local.get $i) (i32.const 2))
                   (i32.and (i32.shr_u (local.get $x) (i32.const 16))
                            (i32.const 255)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $fill)))
    (local.set $i (i32.const 0))
    (block $done
      (loop $go
        (br_if $done (i32.ge_s (local.get $i) (i32.const %d)))
        (local.set $crc
          (call $crc_byte (local.get $crc)
                (i32.load (i32.shl (local.get $i) (i32.const 2)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $go)))
    (call $putint (i32.xor (local.get $crc) (i32.const -1)))
    (i32.const 0)))
|}
    nbytes nbytes nbytes

let wasm_expr_source iters =
  Printf.sprintf
    {|;; deep-operand-stack expression kernel: each round pushes 16
;; independent terms before reducing them, so 16 SSA values are live
;; at once — maximal distance pressure for the STRAIGHT back end.
(module
  (import "env" "putint" (func $putint (param i32)))
  (func $round (param $x i32) (result i32)
    local.get $x i32.const 1 i32.add
    local.get $x i32.const 3 i32.mul
    local.get $x i32.const 5 i32.xor
    local.get $x i32.const 7 i32.add
    local.get $x i32.const 11 i32.mul
    local.get $x i32.const 13 i32.xor
    local.get $x i32.const 17 i32.add
    local.get $x i32.const 19 i32.mul
    local.get $x i32.const 23 i32.xor
    local.get $x i32.const 29 i32.add
    local.get $x i32.const 31 i32.mul
    local.get $x i32.const 37 i32.xor
    local.get $x i32.const 41 i32.add
    local.get $x i32.const 43 i32.mul
    local.get $x i32.const 47 i32.xor
    local.get $x i32.const 53 i32.add
    i32.add i32.xor i32.add i32.xor i32.add
    i32.xor i32.add i32.xor i32.add i32.xor
    i32.add i32.xor i32.add i32.xor i32.add)
  (func (export "main") (result i32)
    (local $i i32) (local $acc i32)
    (local.set $acc (i32.const 9))
    (block $done
      (loop $go
        (br_if $done (i32.ge_s (local.get $i) (i32.const %d)))
        (local.set $acc
          (i32.xor (local.get $acc)
                   (call $round (i32.add (local.get $acc) (local.get $i)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $go)))
    (call $putint (local.get $acc))
    (i32.const 0)))
|}
    iters

let wasm_sieve ?(limit = 2000) () =
  { name = "wasm_sieve"; source = wasm_sieve_source limit; iterations = 1 }

let wasm_crc32 ?(nbytes = 256) () =
  { name = "wasm_crc32"; source = wasm_crc32_source nbytes; iterations = 1 }

let wasm_expr ?(iters = 600) () =
  { name = "wasm_expr"; source = wasm_expr_source iters; iterations = 1 }

(* ---------- the registry ----------

   Every tool resolves a workload name here, so one name is one program
   everywhere: each name has a default program and a quick one, and the
   iterated ones also take an explicit count, "name:N". *)

type entry = {
  sized : bool -> t;            (* the default program, or the quick one *)
  counted : (int -> t) option;  (* the program at N iterations *)
}

let registry =
  let iterated make full quick =
    { sized = (fun q -> make (if q then quick else full)); counted = Some make }
  in
  let kernel full quick =
    { sized = (fun q -> if q then quick () else full ()); counted = None }
  in
  [ ("dhrystone", iterated (fun iterations -> dhrystone ~iterations ()) 200 30);
    ("coremark", iterated (fun iterations -> coremark ~iterations ()) 5 2);
    ("fib", kernel fib fib);
    ("iota", kernel iota iota);
    ("sort", kernel sort sort);
    ("quicksort", kernel quicksort quicksort);
    ("pointer_chase", kernel pointer_chase (pointer_chase ~nodes:256 ~hops:200));
    ("stream", iterated (fun iterations -> stream ~iterations ()) 100 1);
    ("wasm_sieve", kernel wasm_sieve (wasm_sieve ~limit:400));
    ("wasm_crc32", kernel wasm_crc32 (wasm_crc32 ~nbytes:64));
    ("wasm_expr", kernel wasm_expr (wasm_expr ~iters:100)) ]

let names = List.map fst registry

let synopsis =
  String.concat ", "
    (List.map
       (fun (n, e) -> if Option.is_some e.counted then n ^ "[:N]" else n)
       registry)

let resolve ~quick spelling =
  let fail fmt =
    Printf.ksprintf
      (fun why -> Diag.error Diag.Config_error "%s (workloads: %s)" why synopsis)
      fmt
  in
  let lookup name =
    match List.assoc_opt name registry with
    | Some e -> e
    | None -> fail "unknown workload %S" spelling
  in
  match String.split_on_char ':' spelling with
  | [ name ] -> (lookup name).sized quick
  | [ name; n ] ->
    (* decimal digits only: "name:N" is what [spelling] writes back *)
    let digits = String.for_all (fun c -> '0' <= c && c <= '9') n in
    (match (lookup name).counted, int_of_string_opt n with
     | None, _ -> fail "workload %s takes no iteration count" name
     | Some make, Some k when k >= 1 && digits -> make k
     | Some _, _ -> fail "bad iteration count %S for %s" n name)
  | _ -> fail "unknown workload %S" spelling

let spelling (w : t) =
  match List.assoc_opt w.name registry with
  | Some { counted = Some _; _ } -> Printf.sprintf "%s:%d" w.name w.iterations
  | _ -> w.name
