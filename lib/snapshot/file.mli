(** The on-disk checkpoint container.

    Layout (all multi-byte header fields little-endian):

    {v
    offset  size  field
    0       8     magic "STR8SNAP"
    8       4     container version
    12      8     payload length
    20      4     CRC-32 of the payload
    24      n     payload: Bin-encoded meta, then the raw engine image
    v}

    The meta section embeds the full workload source and model
    configuration, so a snapshot file alone reproduces its run: restore
    recompiles the workload, re-runs the functional simulator (which is
    deterministic), and proves the regenerated retirement stream
    identical via {!meta.trace_digest} before handing the session over.

    Writes are atomic (temp file + [rename] in the destination
    directory), so a crash mid-checkpoint can never leave a torn file
    where a reader looks.  Every load failure — missing file, bad magic,
    unsupported version, short payload, CRC mismatch, malformed meta —
    raises {!Diag.Error} with code [Snapshot_error] (exit code 9) and a
    context naming the file and the reason. *)

val magic : string

val version : int
(** Container version 2: v2 added {!meta.kind} (engine image vs.
    sampling-interval checkpoint); v1 files are rejected. *)

(** What the payload after the meta section holds. *)
type kind =
  | Engine_image
      (** a full engine image ({!Ooo_common.Engine.save}) — the
          crash-recovery checkpoints of {!Sim} *)
  | Interval of { index : int; start : int; len : int; warmup : int }
      (** a sampling-interval checkpoint ([lib/sample]): warmed
          microarchitectural state at retirement [start - warmup], then
          the region's uop sub-trace.  [start]/[len] are in retired
          instructions of the measured interval proper; [index] is the
          interval's ordinal in the sampling plan. *)

type meta = {
  kind : kind;
  target : string;              (** [Experiment.target_label] *)
  params_json : string;         (** compact [Params.to_json] rendering *)
  workload_name : string;
  workload_source : string;     (** full MiniC source *)
  workload_iterations : int;
  max_insns : int;
  max_dist : int;
  check : bool;                 (** lockstep checker armed *)
  cycle : int;                  (** engine cycle at the save point *)
  committed : int;
  trace_digest : string;
      (** {!Iss.Trace} digest of the retirement stream (engine images:
          the whole run; interval files: the stored slice) *)
  output : string;              (** ISS console output (full run) *)
  retired : int;                (** ISS retired count (full run) *)
  dist_histogram : int array;
}

val mkdir_p : string -> unit
(** Create a directory and any missing parents (an existing one is
    fine, so concurrent creators do not race). *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path write] runs [write] on a temp file next to [path]
    (["<path>.tmp.<pid>"]) and renames it over [path], so a reader never
    sees a torn file.  When the write or the rename fails, the temp file
    is removed before the error propagates.
    @raise Sys_error when the destination is not writable. *)

val code_digest : unit -> string
(** MD5 of the running executable (computed once, cached): the "code
    hash" every content-addressed store key ends with, so a rebuild
    invalidates what an older build stored. *)

val save : string -> meta -> payload:string -> unit
(** [save path meta ~payload] atomically writes the container; the
    payload's shape is named by [meta.kind].
    @raise Sys_error when the destination is not writable. *)

val load : string -> meta * Ooo_common.Bin.reader
(** Validate the container and decode the meta section.  The returned
    reader is positioned at the kind-specific payload; the caller
    consumes it (and should [expect_end] it).
    @raise Diag.Error code [Snapshot_error] on any invalid container. *)
