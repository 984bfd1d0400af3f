(* Nearest-rank percentiles over a latency sample, and the rule for
   which percentiles a sample supports: a percentile is reported only
   when at least ten samples lie beyond it, so p50 needs 20 samples,
   p90 needs 100 and p99 needs 1000. *)

(* A growable float buffer: samples are appended in the measured loop
   and sorted once at the end. *)
type samples = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

(* [supports ~n pct] holds when a sample of [n] values has at least ten
   values beyond the [pct]-th percentile ([pct] in whole percent).
   Integer arithmetic, so p90 at n = 100 is exact. *)
let supports ~n pct = n * (100 - pct) >= 1000

(* [percentile sorted pct] is the nearest-rank [pct]-th percentile of an
   ascending array: the smallest value with at least [pct]% of the
   sample at or below it. *)
let percentile sorted pct =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.percentile: empty sample";
  if pct < 0 || pct > 100 then invalid_arg "Pct.percentile: pct out of range";
  let rank = ((pct * n) + 99) / 100 in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* [supported s pct] is the percentile when the sample supports it. *)
let supported s pct =
  if supports ~n:s.len pct then Some (percentile (sorted s) pct) else None

let median_of_list xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Pct.median_of_list: empty"
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
