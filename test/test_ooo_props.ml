(* Property-based tests for the shared microarchitectural components,
   driven by the seeded splitmix64 generator (Fuzz.Rng) so every failure
   reproduces from its seed.  Each component property runs >= 1000
   seeded iterations.

   - Cache: LRU behavior equals a reference model (per-set MRU lists)
     on random address streams, a touched line always hits immediately
     after its fill, and the tag/set decomposition round-trips to the
     line address.
   - Branch_pred: gshare and TAGE are deterministic state machines
     (identical histories -> identical predictions), and the RAS
     balances push/pop under bounded call nesting, including across a
     save/restore recovery with wrong-path pushes.
   - Memdep: the predictor guarantees a load PC that once bypassed an
     older overlapping store never bypasses again — replaying any
     random load/store program a second time produces zero
     memory-order violations. *)

module Params = Ooo_common.Params
module Cache = Ooo_common.Cache
module Bp = Ooo_common.Branch_pred
module Memdep = Ooo_common.Memdep
module Rng = Fuzz.Rng

let iterations = 1000

(* ---------- Cache vs a reference LRU model ---------- *)

(* Reference: per-set list of line numbers, MRU first. *)
module Ref_lru = struct
  type t = { sets : int; ways : int; mutable sets_v : int list array }

  let create ~sets ~ways = { sets; ways; sets_v = Array.make sets [] }

  let touch t line =
    let s = line mod t.sets in
    let l = t.sets_v.(s) in
    let hit = List.mem line l in
    let l' = line :: List.filter (fun x -> x <> line) l in
    let l' = List.filteri (fun i _ -> i < t.ways) l' in
    t.sets_v.(s) <- l';
    hit
end

(* a small cache so random streams cause constant eviction *)
let small_params ways =
  { Params.size_bytes = 64 * 8 * ways; ways; line_bytes = 64; hit_latency = 1 }

let test_cache_lru_equivalence () =
  for seed = 1 to iterations do
    let r = Rng.make seed in
    let ways = Rng.choose r [ 1; 2; 4 ] in
    let p = small_params ways in
    let c = Cache.create p in
    let m = Ref_lru.create ~sets:c.Cache.sets ~ways in
    let hits = ref 0 and accesses = ref 0 in
    for step = 0 to 199 do
      (* 4x the cache's line capacity, so misses and evictions dominate *)
      let addr = Rng.int r (4 * p.Params.size_bytes) in
      let got = Cache.touch c addr in
      let want = Ref_lru.touch m (addr lsr c.Cache.line_shift) in
      incr accesses;
      if want then incr hits;
      if got <> want then
        Alcotest.failf
          "seed %d step %d ways %d addr %#x: cache %s but reference %s" seed
          step ways addr
          (if got then "hit" else "missed")
          (if want then "hit" else "missed")
    done;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: access count" seed)
      !accesses c.Cache.accesses;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: miss count" seed)
      (!accesses - !hits) c.Cache.misses
  done

let test_cache_hit_after_fill () =
  for seed = 1 to iterations do
    let r = Rng.make (seed + 0x10000) in
    let p = small_params (Rng.choose r [ 2; 4 ]) in
    let c = Cache.create p in
    for _ = 0 to 99 do
      let addr = Rng.int r (8 * p.Params.size_bytes) in
      if Rng.bool r then begin
        (* a touched line is resident immediately afterwards *)
        ignore (Cache.touch c addr);
        if not (Cache.touch c addr) then
          Alcotest.failf "seed %d: miss right after touch of %#x" seed addr
      end
      else begin
        (* prefetch fill installs the line but books no access *)
        let acc = c.Cache.accesses and miss = c.Cache.misses in
        Cache.fill c addr;
        Alcotest.(check int) "fill books no access" acc c.Cache.accesses;
        Alcotest.(check int) "fill books no miss" miss c.Cache.misses;
        if not (Cache.touch c addr) then
          Alcotest.failf "seed %d: miss right after fill of %#x" seed addr
      end
    done
  done

let test_cache_index_roundtrip () =
  for seed = 1 to iterations do
    let r = Rng.make (seed + 0x20000) in
    let ways = Rng.choose r [ 1; 2; 4 ] in
    let p = small_params ways in
    let c = Cache.create p in
    let addr = Rng.int r (16 * p.Params.size_bytes) in
    ignore (Cache.touch c addr);
    let line = addr lsr c.Cache.line_shift in
    let set = line mod c.Cache.sets in
    let tag = line / c.Cache.sets in
    (* the line must sit in exactly the set its address names, and the
       stored tag must reconstruct the line address *)
    let found = ref false in
    for w = 0 to ways - 1 do
      if c.Cache.tags.((set * ways) + w) = tag then found := true
    done;
    if not !found then
      Alcotest.failf "seed %d: %#x not resident in set %d after touch" seed
        addr set;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: tag/set reconstruct line" seed)
      line
      ((tag * c.Cache.sets) + set)
  done

(* ---------- branch predictors ---------- *)

(* Identical histories must produce identical predictions: predictors
   are deterministic state machines, seeded only by their update
   stream.  A biased outcome function keeps the TAGE allocation path
   busy (always-random outcomes never train long histories). *)
let test_predictor_determinism mk label =
  for seed = 1 to iterations do
    let r = Rng.make (seed + 0x30000) in
    let a : Bp.t = mk () and b : Bp.t = mk () in
    let n_pcs = 1 + Rng.int r 31 in
    let pcs = Array.init n_pcs (fun _ -> Rng.int r 0x40000 * 4) in
    for step = 0 to 99 do
      let pc = pcs.(Rng.int r n_pcs) in
      let taken = (pc lsr 2) mod 3 <> 0 in
      let taken = if Rng.chance r 10 then not taken else taken in
      let pa = a.Bp.predict pc and pb = b.Bp.predict pc in
      if pa <> pb then
        Alcotest.failf "%s seed %d step %d pc %#x: twin predictors diverge"
          label seed step pc;
      a.Bp.update pc taken;
      b.Bp.update pc taken
    done
  done

let test_gshare_determinism () = test_predictor_determinism Bp.gshare "gshare"
let test_tage_determinism () = test_predictor_determinism Bp.tage "tage"

(* RAS: under nesting bounded by the stack depth, every return pops the
   matching call's address; pops of an empty stack say so. *)
let test_ras_balance () =
  let depth = 16 in
  for seed = 1 to iterations do
    let r = Rng.make (seed + 0x40000) in
    let ras = Bp.Ras.create ~depth () in
    let model = ref [] in
    for step = 0 to 199 do
      if Rng.bool r && List.length !model < depth then begin
        let addr = Rng.int r 0x100000 in
        Bp.Ras.push ras addr;
        model := addr :: !model
      end
      else
        match !model with
        | [] ->
          let v = Bp.Ras.pop ras in
          if v <> Bp.Ras.empty then
            Alcotest.failf "seed %d step %d: pop of empty RAS gave %#x" seed
              step v
        | expect :: rest ->
          model := rest;
          let got = Bp.Ras.pop ras in
          if got = Bp.Ras.empty then
            Alcotest.failf "seed %d step %d: empty RAS, expected %#x" seed
              step expect
          else if got <> expect then
            Alcotest.failf "seed %d step %d: popped %#x, pushed %#x" seed
              step got expect
    done
  done

(* Misprediction recovery: save the top pointer, pollute with
   wrong-path pushes (bounded so the circular buffer cannot wrap into
   live entries), restore, and the stack must behave as if the wrong
   path never happened. *)
let test_ras_save_restore () =
  let depth = 16 in
  for seed = 1 to iterations do
    let r = Rng.make (seed + 0x50000) in
    let ras = Bp.Ras.create ~depth () in
    let good = 1 + Rng.int r (depth / 2) in
    let stack = ref [] in
    for _ = 1 to good do
      let a = Rng.int r 0x100000 in
      Bp.Ras.push ras a;
      stack := a :: !stack
    done;
    let snapshot = Bp.Ras.save ras in
    let wrong = Rng.int r (depth - good + 1) in
    for _ = 1 to wrong do
      Bp.Ras.push ras (Rng.int r 0x100000)
    done;
    Bp.Ras.restore ras snapshot;
    List.iteri
      (fun i expect ->
         let got = Bp.Ras.pop ras in
         if got = Bp.Ras.empty then
           Alcotest.failf "seed %d pop %d after restore: empty" seed i
         else if got <> expect then
           Alcotest.failf "seed %d pop %d after restore: %#x, expected %#x"
             seed i got expect)
      !stack
  done

(* ---------- memory-dependence predictor ---------- *)

(* A tiny LSQ model: random programs of loads/stores over a small word
   space; an unresolved store is visible to younger loads only by
   address once it resolves.  First pass: a load predicted conflict-free
   that overlaps an older unresolved store is a violation (train).
   Property: the violation count equals the trained-PC count, trained
   PCs always predict a conflict afterwards, and a full second pass of
   the same program violates zero times — loads never bypass an older
   overlapping store twice. *)
let test_memdep_no_repeat_bypass () =
  for seed = 1 to iterations do
    let r = Rng.make (seed + 0x60000) in
    let md = Memdep.create ~entries:4096 () in
    let n_ops = 16 + Rng.int r 48 in
    (* op = (pc, is_load, word address, store resolve delay) *)
    let program =
      Array.init n_ops (fun i ->
          (0x1000 + (i * 4), Rng.bool r, Rng.int r 16, 1 + Rng.int r 4))
    in
    let run_pass () =
      let violations = ref 0 in
      (* stores enter a window and resolve [delay] ops later *)
      let unresolved = ref [] in
      Array.iteri
        (fun age (pc, is_load, addr, delay) ->
           unresolved :=
             List.filter (fun (_, _, until) -> until > age) !unresolved;
           if is_load then begin
             let overlap =
               List.exists (fun (_, a, _) -> a = addr) !unresolved
             in
             let waits = Memdep.predict_conflict md pc in
             if (not waits) && overlap then begin
               (* bypassed an older overlapping store: violation *)
               incr violations;
               Memdep.train_violation md pc;
               if not (Memdep.predict_conflict md pc) then
                 Alcotest.failf
                   "seed %d pc %#x: trained load still predicts no conflict"
                   seed pc
             end
           end
           else unresolved := (pc, addr, age + delay) :: !unresolved)
        program;
      !violations
    in
    let first = run_pass () in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: violations are counted" seed)
      first md.Memdep.violations;
    let second = run_pass () in
    if second <> 0 then
      Alcotest.failf "seed %d: %d repeat bypass(es) on the second pass" seed
        second
  done

(* fresh tables predict no conflict (loads speculate by default), and
   training is sticky under arbitrary interleaved training of other
   PCs (aliasing can only add conflicts, never clear one) *)
let test_memdep_sticky () =
  for seed = 1 to iterations do
    let r = Rng.make (seed + 0x70000) in
    let md = Memdep.create ~entries:4096 () in
    let pc = Rng.int r 0x100000 * 4 in
    if Memdep.predict_conflict md pc then
      Alcotest.failf "seed %d: fresh table predicts a conflict at %#x" seed pc;
    Memdep.train_violation md pc;
    for _ = 1 to 50 do
      Memdep.train_violation md (Rng.int r 0x100000 * 4)
    done;
    if not (Memdep.predict_conflict md pc) then
      Alcotest.failf "seed %d: training at %#x was lost" seed pc
  done

let suite =
  [ Alcotest.test_case "cache: LRU equals reference model (1000 seeds)" `Quick
      test_cache_lru_equivalence;
    Alcotest.test_case "cache: hit after fill (1000 seeds)" `Quick
      test_cache_hit_after_fill;
    Alcotest.test_case "cache: set/tag indexing round-trip (1000 seeds)"
      `Quick test_cache_index_roundtrip;
    Alcotest.test_case "gshare: deterministic under identical history" `Quick
      test_gshare_determinism;
    Alcotest.test_case "tage: deterministic under identical history" `Quick
      test_tage_determinism;
    Alcotest.test_case "ras: push/pop balance (1000 seeds)" `Quick
      test_ras_balance;
    Alcotest.test_case "ras: save/restore recovery (1000 seeds)" `Quick
      test_ras_save_restore;
    Alcotest.test_case "memdep: no repeated bypass (1000 seeds)" `Quick
      test_memdep_no_repeat_bypass;
    Alcotest.test_case "memdep: default-speculate, sticky training" `Quick
      test_memdep_sticky ]

let () = Alcotest.run "ooo_props" [ ("ooo_props", suite) ]
