(** Order statistics over measured samples. *)

exception Refused of string

(** A tail percentile needs at least this many samples beyond it. *)
let min_beyond = 10

let sorted (xs : float array) =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let median (xs : float array) =
  let n = Array.length xs in
  if n = 0 then raise (Refused "median of no samples");
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank percentile at [permille]/1000: the smallest sample
    with at least that share of the samples at or below it.  Refused
    (raises {!Refused}) unless at least {!min_beyond} samples lie
    above its rank, so a reported tail always rests on real samples. *)
let percentile ~permille (xs : float array) =
  let n = Array.length xs in
  let rank = ((permille * n) + 999) / 1000 in
  if rank < 1 || n - rank < min_beyond then
    raise
      (Refused
         (Printf.sprintf "p%g of %d samples leaves %d beyond it (need %d)"
            (float_of_int permille /. 10.0)
            n (n - rank) min_beyond));
  (sorted xs).(rank - 1)

let mean (xs : float array) =
  if Array.length xs = 0 then raise (Refused "mean of no samples");
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(** Geometric mean of [ratios], as a percentage over 1 (the SPEC
    convention for overheads). *)
let geomean_pct (ratios : float list) =
  let n = float_of_int (List.length ratios) in
  (exp (List.fold_left (fun acc r -> acc +. log r) 0.0 ratios /. n) -. 1.0)
  *. 100.0

(** A growable float buffer for per-request samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add s v =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- v;
    s.n <- s.n + 1

  let length s = s.n
  let to_array s = Array.sub s.a 0 s.n
end
