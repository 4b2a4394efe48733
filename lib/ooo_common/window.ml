(* Bounded window over a retirement stream: a power-of-two ring of uops
   and dispatch seqs indexed by absolute retirement index.  See
   window.mli. *)

module Trace = Iss.Trace

type t = {
  length : int;
  next : unit -> Trace.uop;
  skip : int -> unit;
  mutable uops : Trace.uop array;
  mutable seqs : int array;
  mutable mask : int;
  mutable base : int;          (* oldest retained index *)
  mutable frontier : int;      (* one past the newest pulled index *)
  mutable high_water : int;
}

let of_source ~length ~next ~skip =
  if length < 0 then invalid_arg "Window.of_source: negative length";
  { length; next; skip;
    uops = Array.make 64 Trace.placeholder;
    seqs = Array.make 64 (-1);
    mask = 63;
    base = 0;
    frontier = 0;
    high_water = 0 }

let of_array (a : Trace.uop array) =
  let pos = ref 0 in
  of_source ~length:(Array.length a)
    ~next:(fun () ->
        let u = a.(!pos) in
        incr pos;
        u)
    ~skip:(fun n -> pos := n)

let length w = w.length
let base w = w.base

let grow w =
  let cap = 2 * Array.length w.uops in
  let uops = Array.make cap Trace.placeholder and seqs = Array.make cap (-1) in
  for i = w.base to w.frontier - 1 do
    uops.(i land (cap - 1)) <- w.uops.(i land w.mask);
    seqs.(i land (cap - 1)) <- w.seqs.(i land w.mask)
  done;
  w.uops <- uops;
  w.seqs <- seqs;
  w.mask <- cap - 1

let pull w =
  if w.frontier - w.base = Array.length w.uops then grow w;
  let slot = w.frontier land w.mask in
  w.uops.(slot) <- w.next ();
  w.seqs.(slot) <- -1;
  w.frontier <- w.frontier + 1;
  if w.frontier - w.base > w.high_water then
    w.high_water <- w.frontier - w.base

let get w i =
  if i < w.base || i >= w.length then
    invalid_arg
      (Printf.sprintf "Window.get: index %d outside [%d, %d)" i w.base w.length);
  while w.frontier <= i do pull w done;
  w.uops.(i land w.mask)

let retained w i = i >= w.base && i < w.frontier

let find w i = if retained w i then w.uops.(i land w.mask) else Trace.placeholder
let seq w i = if retained w i then w.seqs.(i land w.mask) else -1
let set_seq w i s = if retained w i then w.seqs.(i land w.mask) <- s

let release w i =
  let i = if i < w.frontier then i else w.frontier in
  while w.base < i do
    w.uops.(w.base land w.mask) <- Trace.placeholder;
    w.base <- w.base + 1
  done

let seek w n =
  if w.frontier <> 0 then invalid_arg "Window.seek: window already read";
  if n < 0 || n > w.length then
    invalid_arg (Printf.sprintf "Window.seek: %d outside [0, %d]" n w.length);
  w.skip n;
  w.base <- n;
  w.frontier <- n

let frontier w = w.frontier
let high_water w = w.high_water
