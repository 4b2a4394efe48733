(* Shared reporting vocabulary for the static binary verifiers
   (lib/straight_lint and lib/riscv_lint) and the translation validator:
   one finding record with a severity, a formatter, and the report as a
   [Json.t] so CI can archive lint reports as build artifacts.

   The [check] field is a short machine-stable name ("live-window",
   "uninit-read", ...): tools and tests match on it, so renaming one is
   a breaking change. *)

type severity = Error | Warning | Info

type finding = {
  pc : int;            (* byte address of the offending instruction *)
  check : string;      (* short machine-stable name of the check *)
  severity : severity;
  message : string;
  func : string option;  (* enclosing function, when the check knows it *)
}

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let finding ?(severity = Error) ?func ~pc ~check message =
  { pc; check; severity; message; func }

let pp_finding fmt (f : finding) =
  Format.fprintf fmt "0x%x: [%s]%s %s%s" f.pc f.check
    (match f.func with None -> "" | Some fn -> " (" ^ fn ^ ")")
    (match f.severity with Error -> "" | s -> severity_name s ^ ": ")
    f.message

let finding_to_string (f : finding) = Format.asprintf "%a" pp_finding f

let errors (fs : finding list) : finding list =
  List.filter (fun f -> f.severity = Error) fs

(* ---------- JSON ---------- *)

let finding_json (f : finding) : Json.t =
  Json.Obj
    ([ ("pc", Json.Int f.pc);
       ("check", Json.Str f.check);
       ("severity", Json.Str (severity_name f.severity));
       ("message", Json.Str f.message) ]
     @ match f.func with None -> [] | Some fn -> [ ("func", Json.Str fn) ])

(* [report_json ?schema groups] describes a whole lint run: one entry
   per linted image, labeled by target/configuration.  The shape is
   stable, and only ever extended additively (old readers keep working):

     { "schema": "...",            -- only when [?schema] is given
       "findings_total": N,
       "errors": N, "warnings": N, "infos": N,
       "images": [ { "label": "...", "findings": [ {...}, ... ] } ] } *)
let report_json ?schema (groups : (string * finding list) list) : Json.t =
  let all = List.concat_map snd groups in
  let count sev =
    Json.Int (List.length (List.filter (fun f -> f.severity = sev) all))
  in
  Json.Obj
    ((match schema with None -> [] | Some s -> [ ("schema", Json.Str s) ])
     @ [ ("findings_total", Json.Int (List.length all));
         ("errors", count Error);
         ("warnings", count Warning);
         ("infos", count Info);
         ("images",
          Json.List
            (List.map
               (fun (label, fs) ->
                  Json.Obj
                    [ ("label", Json.Str label);
                      ("findings", Json.List (List.map finding_json fs)) ])
               groups)) ])
