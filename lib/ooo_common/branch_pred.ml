(* Branch direction predictors: gshare (Table I: 10-bit global history,
   32 K entries) and an 8-component TAGE (Section VI-A, Fig. 14), plus a
   return-address stack.  Direct-jump/branch targets are assumed to hit a
   perfect BTB, as in most academic simulators; returns are predicted by
   the RAS. *)

type t = {
  predict : int -> bool;          (* pc -> taken? *)
  update : int -> bool -> unit;   (* pc -> actual outcome *)
  save : Buffer.t -> unit;        (* serialize tables + history *)
  load : Bin.reader -> unit;      (* inverse, into the same geometry *)
}

(* ---------- gshare ---------- *)

let gshare ?(history_bits = 10) ?(entries = 32768) () : t =
  let table = Bytes.make entries '\002' (* 2-bit counters, init weakly taken *) in
  let history = ref 0 in
  let index pc =
    ((pc lsr 2) lxor (!history lsl (14 - history_bits))) land (entries - 1)
  in
  let predict pc = Char.code (Bytes.get table (index pc)) >= 2 in
  let update pc taken =
    let i = index pc in
    let c = Char.code (Bytes.get table i) in
    let c' = if taken then min 3 (c + 1) else max 0 (c - 1) in
    Bytes.set table i (Char.chr c');
    history := ((!history lsl 1) lor (if taken then 1 else 0))
               land ((1 lsl history_bits) - 1)
  in
  let save b =
    Bin.w_bytes b table;
    Bin.w_int b !history
  in
  let load r =
    Bin.r_bytes_into r table;
    history := Bin.r_int r
  in
  { predict; update; save; load }

(* ---------- TAGE ---------- *)

(* A compact TAGE with a bimodal base and 7 tagged components with
   geometric history lengths (8 components total, as "8-component
   CBP-TAGE").  Counters are 3 bits, tags 11 bits, usefulness 2 bits. *)

module Tage = struct
  type entry = { mutable tag : int; mutable ctr : int; mutable useful : int }

  type component = { entries : entry array; hist_len : int }

  type state = {
    bimodal : Bytes.t;
    comps : component array;
    mutable ghist : int;            (* 64-bit global history (low bits) *)
    mutable tick : int;
  }

  let log_entries = 10
  let n_tagged = 7

  let fold hist len bits =
    (* fold [len] history bits into [bits] bits *)
    let len = min len 62 in
    let h = ref (hist land ((1 lsl len) - 1)) and acc = ref 0 in
    while !h <> 0 do
      acc := !acc lxor (!h land ((1 lsl bits) - 1));
      h := !h lsr bits
    done;
    !acc

  let index c pc h =
    ((pc lsr 2) lxor fold h c.hist_len log_entries)
    land ((1 lsl log_entries) - 1)

  let tag c pc h =
    ((pc lsr 2) lxor fold h c.hist_len 11 lxor (fold h c.hist_len 10 lsl 1))
    land 0x7FF

  let create () =
    let hist_lens = [| 4; 8; 16; 24; 32; 44; 60 |] in
    let comps =
      Array.map
        (fun hl ->
           { entries =
               Array.init (1 lsl log_entries) (fun _ ->
                   { tag = 0; ctr = 0; useful = 0 });
             hist_len = hl })
        hist_lens
    in
    { bimodal = Bytes.make 16384 '\002'; comps; ghist = 0; tick = 0 }

  let bimodal_index pc = (pc lsr 2) land 16383

  (* the longest matching component, or -1 *)
  let lookup st pc =
    let found = ref (-1) and i = ref (n_tagged - 1) in
    while !found < 0 && !i >= 0 do
      let c = st.comps.(!i) in
      if c.entries.(index c pc st.ghist).tag = tag c pc st.ghist then
        found := !i;
      decr i
    done;
    !found

  let entry st i pc =
    let c = st.comps.(i) in
    c.entries.(index c pc st.ghist)

  let bimodal_taken st pc =
    Char.code (Bytes.get st.bimodal (bimodal_index pc)) >= 2

  let predict st pc =
    let i = lookup st pc in
    if i >= 0 then (entry st i pc).ctr >= 0 else bimodal_taken st pc

  let update st pc taken =
    let provider = lookup st pc in
    let pred =
      if provider >= 0 then (entry st provider pc).ctr >= 0
      else bimodal_taken st pc
    in
    if provider >= 0 then begin
      let e = entry st provider pc in
      e.ctr <- (if taken then min 3 (e.ctr + 1) else max (-4) (e.ctr - 1));
      if pred = taken then e.useful <- min 3 (e.useful + 1)
      else e.useful <- max 0 (e.useful - 1)
    end
    else begin
      let i = bimodal_index pc in
      let c = Char.code (Bytes.get st.bimodal i) in
      let c' = if taken then min 3 (c + 1) else max 0 (c - 1) in
      Bytes.set st.bimodal i (Char.chr c')
    end;
    (* allocate a longer-history entry on a misprediction *)
    if pred <> taken then begin
      let i = ref (provider + 1) in
      while !i < n_tagged do
        let c = st.comps.(!i) in
        let e = c.entries.(index c pc st.ghist) in
        if e.useful = 0 then begin
          e.tag <- tag c pc st.ghist;
          e.ctr <- (if taken then 0 else -1);
          i := n_tagged
        end
        else incr i
      done;
      (* periodically age usefulness so allocation cannot starve *)
      st.tick <- st.tick + 1;
      if st.tick land 1023 = 0 then
        Array.iter
          (fun c ->
             Array.iter (fun e -> e.useful <- max 0 (e.useful - 1)) c.entries)
          st.comps
    end;
    st.ghist <- ((st.ghist lsl 1) lor (if taken then 1 else 0))
                land ((1 lsl 62) - 1)

  let save b st =
    Bin.w_bytes b st.bimodal;
    Array.iter
      (fun c ->
         Array.iter
           (fun e ->
              Bin.w_int b e.tag;
              Bin.w_int b e.ctr;
              Bin.w_int b e.useful)
           c.entries)
      st.comps;
    Bin.w_int b st.ghist;
    Bin.w_int b st.tick

  let load r st =
    Bin.r_bytes_into r st.bimodal;
    Array.iter
      (fun c ->
         Array.iter
           (fun e ->
              e.tag <- Bin.r_int r;
              e.ctr <- Bin.r_int r;
              e.useful <- Bin.r_int r)
           c.entries)
      st.comps;
    st.ghist <- Bin.r_int r;
    st.tick <- Bin.r_int r
end

let tage () : t =
  let st = Tage.create () in
  { predict = (fun pc -> Tage.predict st pc);
    update = (fun pc taken -> Tage.update st pc taken);
    save = (fun b -> Tage.save b st);
    load = (fun r -> Tage.load r st) }

let make = function
  | Params.Gshare -> gshare ()
  | Params.Tage -> tage ()

(* ---------- return address stack ---------- *)

module Ras = struct
  type t = { stack : int array; mutable top : int }

  let create ?(depth = 16) () = { stack = Array.make depth 0; top = 0 }

  let push t addr =
    t.stack.(t.top mod Array.length t.stack) <- addr;
    t.top <- t.top + 1

  let empty = -1

  let pop t =
    if t.top = 0 then empty
    else begin
      t.top <- t.top - 1;
      t.stack.(t.top mod Array.length t.stack)
    end

  (* recovery: snapshot/restore the top-of-stack pointer *)
  let save t = t.top
  let restore t top = t.top <- top

  (* checkpointing: the whole stack, not just the pointer *)
  let save_full b t =
    Bin.w_int_array b t.stack;
    Bin.w_int b t.top

  let load_full r t =
    Bin.r_int_array_into r t.stack;
    t.top <- Bin.r_int r
end
