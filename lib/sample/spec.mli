(** The sampling plan's shape: how a long run is sliced.

    A run of [N] retired instructions is divided into consecutive
    intervals of [interval] instructions; every [every]-th interval is
    measured (systematic sampling — [every = 1] measures all of them).
    Each measured interval is simulated with a detailed-warmup prefix of
    [warmup] instructions whose cycles are excluded from its statistics;
    caches and predictors are additionally warmed functionally over the
    entire prefix since program start. *)

type t = {
  interval : int;  (** measured interval length, retired instructions *)
  warmup : int;    (** detailed-warmup prefix per interval *)
  every : int;     (** measure every k-th interval (systematic sampling) *)
}

exception Parse_error of string

val parse : string -> t
(** Parse the CLI syntax [interval=1M,warmup=100k\[,every=4\]].  Counts
    accept [k]/[M] decimal suffixes.  [every] defaults to 1.
    @raise Parse_error on bad syntax, a non-positive interval, a
    negative warmup, or [every < 1]. *)

val to_string : t -> string
(** Canonical [interval=..,warmup=..,every=..] rendering (exact digits,
    no suffixes) — stable for content-addressing. *)

val to_json : t -> Json.t
val of_json : Json.t -> t
(** @raise Parse_error on a malformed object. *)
