(* Set-associative caches with LRU replacement, a three-level hierarchy
   (Table I), and a next-line stream prefetcher on the data side
   (Section V-A). *)

type cache = {
  sets : int;
  ways : int;
  line_shift : int;
  tags : int array;        (* sets * ways; -1 = invalid *)
  lru : int array;         (* per line: last access stamp *)
  hit_latency : int;
  mutable accesses : int;
  mutable misses : int;
  mutable stamp : int;
}

let create (p : Params.cache_params) : cache =
  let lines = p.size_bytes / p.line_bytes in
  let sets = lines / p.ways in
  let line_shift =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    log2 p.line_bytes
  in
  { sets;
    ways = p.ways;
    line_shift;
    tags = Array.make lines (-1);
    lru = Array.make lines 0;
    hit_latency = p.hit_latency;
    accesses = 0;
    misses = 0;
    stamp = 0 }

(* [touch c addr] looks up and fills on miss; returns [true] on hit. *)
let touch (c : cache) addr : bool =
  c.stamp <- c.stamp + 1;
  c.accesses <- c.accesses + 1;
  let line = addr lsr c.line_shift in
  let set = line mod c.sets in
  let tag = line / c.sets in
  let base = set * c.ways in
  let hit = ref false in
  for w = 0 to c.ways - 1 do
    if c.tags.(base + w) = tag then begin
      hit := true;
      c.lru.(base + w) <- c.stamp
    end
  done;
  if not !hit then begin
    c.misses <- c.misses + 1;
    (* evict LRU way *)
    let victim = ref base in
    for w = 1 to c.ways - 1 do
      if c.lru.(base + w) < c.lru.(!victim) then victim := base + w
    done;
    c.tags.(!victim) <- tag;
    c.lru.(!victim) <- c.stamp
  end;
  !hit

(* silent fill (prefetch): install without counting an access *)
let fill (c : cache) addr : unit =
  c.stamp <- c.stamp + 1;
  let line = addr lsr c.line_shift in
  let set = line mod c.sets in
  let tag = line / c.sets in
  let base = set * c.ways in
  let present = ref false in
  for w = 0 to c.ways - 1 do
    if c.tags.(base + w) = tag then present := true
  done;
  if not !present then begin
    let victim = ref base in
    for w = 1 to c.ways - 1 do
      if c.lru.(base + w) < c.lru.(!victim) then victim := base + w
    done;
    c.tags.(!victim) <- tag;
    c.lru.(!victim) <- c.stamp
  end

(* [corrupt_tag c ~victim ~flip] models a transient fault in the tag
   array: the tag of line [victim mod lines] is xored with [flip].  The
   model stores no data, so the effect is timing-only — the corrupted
   entry stops matching its resident line (an induced miss) or starts
   matching a different one (a false hit with the wrong latency). *)
let corrupt_tag (c : cache) ~victim ~flip : unit =
  let lines = Array.length c.tags in
  let i = ((victim mod lines) + lines) mod lines in
  if c.tags.(i) >= 0 then
    c.tags.(i) <- c.tags.(i) lxor (max 1 (flip land 0xFF))

(* ---------- snapshot ---------- *)

let save_cache b (c : cache) =
  Bin.w_int_array b c.tags;
  Bin.w_int_array b c.lru;
  Bin.w_int b c.accesses;
  Bin.w_int b c.misses;
  Bin.w_int b c.stamp

let load_cache r (c : cache) =
  Bin.r_int_array_into r c.tags;
  Bin.r_int_array_into r c.lru;
  c.accesses <- Bin.r_int r;
  c.misses <- Bin.r_int r;
  c.stamp <- Bin.r_int r

(* ---------- hierarchy ---------- *)

type hierarchy = {
  l1i : cache;
  l1d : cache;
  l2 : cache;
  l3 : cache option;
  memory_latency : int;
  prefetch_degree : int;
  mutable prefetches : int;
}

let create_hierarchy (p : Params.t) : hierarchy =
  { l1i = create p.l1i;
    l1d = create p.l1d;
    l2 = create p.l2;
    l3 = Option.map create p.l3;
    memory_latency = p.memory_latency;
    prefetch_degree = 2;
    prefetches = 0 }

let save_hierarchy b (h : hierarchy) =
  save_cache b h.l1i;
  save_cache b h.l1d;
  save_cache b h.l2;
  (match h.l3 with
   | None -> Bin.w_bool b false
   | Some l3 -> Bin.w_bool b true; save_cache b l3);
  Bin.w_int b h.prefetches

let load_hierarchy r (h : hierarchy) =
  load_cache r h.l1i;
  load_cache r h.l1d;
  load_cache r h.l2;
  (match Bin.r_bool r, h.l3 with
   | true, Some l3 -> load_cache r l3
   | false, None -> ()
   | _ -> Bin.corrupt "L3 presence does not match the configuration");
  h.prefetches <- Bin.r_int r

(* [access_below h addr] walks L2/L3/memory and returns the additional
   latency beyond L1. *)
let access_below h addr =
  if touch h.l2 addr then h.l2.hit_latency
  else
    match h.l3 with
    | Some l3 ->
      if touch l3 addr then h.l2.hit_latency + l3.hit_latency
      else h.l2.hit_latency + l3.hit_latency + h.memory_latency
    | None -> h.l2.hit_latency + h.memory_latency

(* [data_access h addr] returns total load-to-use latency for a data access
   and trains the stream prefetcher on L1D misses. *)
let data_access h addr : int =
  if touch h.l1d addr then h.l1d.hit_latency
  else begin
    let extra = access_below h addr in
    (* next-line stream prefetch into L1D and L2 *)
    let line_bytes = 1 lsl h.l1d.line_shift in
    for k = 1 to h.prefetch_degree do
      let a = addr + (k * line_bytes) in
      fill h.l1d a;
      fill h.l2 a;
      h.prefetches <- h.prefetches + 1
    done;
    h.l1d.hit_latency + extra
  end

(* [inst_access h pc] returns instruction-fetch latency for the line at
   [pc] (L1I hit latency is pipelined away; only the miss penalty stalls
   the front end). *)
let inst_access h pc : int =
  if touch h.l1i pc then 0
  else begin
    let extra = access_below h pc in
    let line_bytes = 1 lsl h.l1i.line_shift in
    fill h.l1i (pc + line_bytes);   (* next-line instruction prefetch *)
    extra
  end

(* ---------- functional warming ----------

   Warming replays the ISS retirement stream through the same lookup/
   replacement path as detailed simulation so the tag and LRU state ends
   up exactly where a detailed run would leave it, but the latencies are
   discarded: during fast-forward nothing is timed.  [reset_stats] then
   zeroes the counters so warming never pollutes measured miss rates
   (LRU stamps are kept — they are ordering state, not statistics). *)

let warm_inst h pc =
  if not (touch h.l1i pc) then begin
    ignore (access_below h pc);
    let line_bytes = 1 lsl h.l1i.line_shift in
    fill h.l1i (pc + line_bytes)
  end

let warm_data h addr =
  if not (touch h.l1d addr) then begin
    ignore (access_below h addr);
    let line_bytes = 1 lsl h.l1d.line_shift in
    for k = 1 to h.prefetch_degree do
      let a = addr + (k * line_bytes) in
      fill h.l1d a;
      fill h.l2 a
    done
  end

let reset_cache_stats (c : cache) =
  c.accesses <- 0;
  c.misses <- 0

let reset_stats (h : hierarchy) =
  reset_cache_stats h.l1i;
  reset_cache_stats h.l1d;
  reset_cache_stats h.l2;
  Option.iter reset_cache_stats h.l3;
  h.prefetches <- 0
