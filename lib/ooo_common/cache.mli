(** Set-associative caches with LRU replacement, the three-level hierarchy
    of Table I, and a next-line stream prefetcher on the data side
    (Section V-A). *)

type cache = {
  sets : int;
  ways : int;
  line_shift : int;
  tags : int array;
  lru : int array;
  hit_latency : int;
  mutable accesses : int;
  mutable misses : int;
  mutable stamp : int;
}

val create : Params.cache_params -> cache

val touch : cache -> int -> bool
(** [touch c addr] looks up and fills on miss; [true] on hit. *)

val fill : cache -> int -> unit
(** Silent install (prefetch): no access/miss accounting. *)

val corrupt_tag : cache -> victim:int -> flip:int -> unit
(** Fault injection: xor [flip] (low 8 bits, at least 1) into the tag of
    line [victim mod lines].  Timing-only — the model stores no data, so
    a corrupted tag induces extra misses or false hits, never wrong
    values.  Invalid lines are left untouched. *)

type hierarchy = {
  l1i : cache;
  l1d : cache;
  l2 : cache;
  l3 : cache option;
  memory_latency : int;
  prefetch_degree : int;
  mutable prefetches : int;
}

val create_hierarchy : Params.t -> hierarchy

val save_hierarchy : Buffer.t -> hierarchy -> unit
(** Serialize every level's mutable portion (tags, LRU stamps,
    counters; geometry comes from [Params]) plus the prefetch
    counter. *)

val load_hierarchy : Bin.reader -> hierarchy -> unit
(** Inverse of {!save_hierarchy} into a freshly built hierarchy of the
    same configuration.  @raise Bin.Corrupt on malformed input or an
    L3-presence mismatch. *)

val access_below : hierarchy -> int -> int
(** Walk L2/L3/memory; returns the additional latency beyond L1. *)

val data_access : hierarchy -> int -> int
(** Total load-to-use latency for a data access; trains the next-line
    stream prefetcher on L1D misses. *)

val inst_access : hierarchy -> int -> int
(** Instruction-fetch penalty for the line at [pc]: 0 on an L1I hit (the
    hit latency is pipelined into the front-end depth), the miss latency
    otherwise. *)

val warm_inst : hierarchy -> int -> unit
(** Functional warming of the instruction path: same lookup, fill and
    next-line prefetch as {!inst_access}, latency discarded. *)

val warm_data : hierarchy -> int -> unit
(** Functional warming of the data path: same lookup, fill and stream
    prefetch as {!data_access}, latency discarded. *)

val reset_stats : hierarchy -> unit
(** Zero the access/miss/prefetch counters at every level while keeping
    tags and LRU ordering — called at the warm-to-detailed handoff so
    warming never pollutes measured miss rates. *)
