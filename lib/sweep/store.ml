(* Content-addressed result cache (see store.mli). *)

module Params = Ooo_common.Params
module J = Json

let key (pt : Grid.point) : string =
  let w = pt.Grid.workload in
  let manifest =
    String.concat "\n"
      [ "straight-sweep-key/2";
        Params.digest pt.Grid.params;
        Straight_core.Experiment.target_label pt.Grid.target;
        w.Workloads.name;
        string_of_int w.Workloads.iterations;
        Digest.to_hex (Digest.string w.Workloads.source);
        (match pt.Grid.sample with
         | None -> "exact"
         | Some sp -> Sample.Spec.to_string sp);
        Snapshot.File.code_digest () ]
  in
  Digest.to_hex (Digest.string manifest)

let cache_dir dir = Filename.concat dir "cache"
let path dir k = Filename.concat (cache_dir dir) (k ^ ".json")

(* ---------- stale temp-file hygiene ----------

   [save] writes "<key>.json.tmp.<pid>" then renames.  A writer dying
   between the two (SIGKILL, OOM, power) orphans the temp file forever:
   nothing ever renames or removes it, and only the sweep pool's SIGINT
   path used to clean checkpoint temps.  A temp file is provably stale
   once the pid baked into its name is dead, so each process sweeps a
   directory the first time it touches it (and [sweep_stale] lets the
   resident daemon re-sweep periodically).  Live pids — another sweep
   writing concurrently — are left alone. *)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM: alive, someone else's *)

(* "<anything>.tmp.<pid>" -> Some pid *)
let tmp_pid name =
  let marker = ".tmp." in
  let ml = String.length marker in
  let n = String.length name in
  let rec find i =
    if i + ml > n then None
    else if String.sub name i ml = marker then
      int_of_string_opt (String.sub name (i + ml) (n - i - ml))
    else find (i + 1)
  in
  find 0

let sweep_dir d =
  match Sys.readdir d with
  | exception Sys_error _ -> 0
  | files ->
    Array.fold_left
      (fun acc f ->
         match tmp_pid f with
         | Some pid when pid <> Unix.getpid () && not (pid_alive pid) ->
           (try Sys.remove (Filename.concat d f); acc + 1
            with Sys_error _ -> acc)
         | _ -> acc)
      0 files

let swept : (string, unit) Hashtbl.t = Hashtbl.create 8

let sweep_stale ~dir : int =
  Hashtbl.replace swept (cache_dir dir) ();
  sweep_dir (cache_dir dir)

let sweep_once d =
  if not (Hashtbl.mem swept d) then begin
    Hashtbl.replace swept d ();
    ignore (sweep_dir d)
  end

(* ---------- generic JSON documents (daemon compile cache) ---------- *)

let doc_path ~dir ~sub k = Filename.concat (Filename.concat dir sub) (k ^ ".json")

let lookup_doc ~dir ~sub k : J.t option =
  sweep_once (Filename.concat dir sub);
  match In_channel.with_open_text (doc_path ~dir ~sub k) In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    (match J.of_string text with
     | j -> Some j
     | exception J.Parse_error _ -> None)

let save_doc ~dir ~sub k (doc : J.t) : unit =
  let d = Filename.concat dir sub in
  Snapshot.File.mkdir_p d;
  sweep_once d;
  Snapshot.File.write_atomic (doc_path ~dir ~sub k) (fun oc ->
      output_string oc (J.to_string doc))

let lookup ~dir k : Runner.record option =
  sweep_once (cache_dir dir);
  let p = path dir k in
  match In_channel.with_open_text p In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    (match Runner.of_json (J.of_string text) with
     | r -> Some { r with Runner.cached = true }
     | exception J.Parse_error _ -> None)

let save ~dir k (r : Runner.record) : unit =
  save_doc ~dir ~sub:"cache" k (Runner.to_json r)
