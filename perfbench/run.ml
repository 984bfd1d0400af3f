(* One measured phase: the timed windows, the samples taken in them,
   the oracle verdict and the per-layer values a workload reports.

   A timed window covers exactly one call sequence into the system — a
   measured op (a read or a write) or a maintenance step the workload
   owes (a checkpoint, a refresh, a recovery).  Oracle checks and the
   benchmark's own bookkeeping run between windows, so they never count
   towards latency or throughput.  In a traced phase every window is a
   root span, and the span ring is drained into {!Spans} after each
   one, also outside the window.

   A phase may span several epochs (fresh set-ups of the same
   workload), so per-layer values are accumulated, never overwritten:
   a ratio keeps its numerator and denominator, a count its sum, and a
   percentile its pooled sample. *)

module Span = Ltree_obs.Span

type t = {
  traced : bool;
  spans : Spans.t;
  writes : Pct.samples;  (** write latencies, microseconds *)
  reads : Pct.samples;  (** read latencies, microseconds *)
  mutable attempted : int;
  mutable failed : int;
  mutable wall_s : float;
      (** seconds inside timed windows: what the layer self times must
          add up to in a traced phase *)
  mutable minor_words : float;  (** allocated inside timed windows *)
  mutable major_words : float;
  mutable major_collections : int;
  mutable spans_dropped : int;
  mutable mismatch : string option;  (** first oracle failure *)
  corrupt_read : int option;
      (** test hook: the n-th read result is damaged before the oracle
          sees it *)
  mutable results_seen : int;
  ratios : (string, float * float) Hashtbl.t;  (** numerator, denominator *)
  counts : (string, float) Hashtbl.t;
  samples : (string, Pct.samples) Hashtbl.t;
  finals : (string, float) Hashtbl.t;  (** values the runner computes *)
}

let create ?corrupt_read ~traced () =
  {
    traced; spans = Spans.create (); writes = Pct.create (); reads = Pct.create ();
    attempted = 0; failed = 0; wall_s = 0.0; minor_words = 0.0;
    major_words = 0.0; major_collections = 0; spans_dropped = 0;
    mismatch = None; corrupt_read; results_seen = 0;
    ratios = Hashtbl.create 64; counts = Hashtbl.create 16;
    samples = Hashtbl.create 4; finals = Hashtbl.create 64;
  }

let now = Unix.gettimeofday

let drain r =
  if r.traced then begin
    r.spans_dropped <- r.spans_dropped + Span.dropped ();
    List.iter (Spans.add r.spans) (Span.records ());
    Span.reset ()
  end

(* [window r ~name f] runs [f] as one timed window (a root span named
   [name] when traced) and returns its result and duration. *)
let window r ~name f =
  let mc0 = (Gc.quick_stat ()).Gc.major_collections in
  let _, _, maj0 = Gc.counters () in
  let mw0 = Gc.minor_words () in
  (* Spans are on only inside windows, so set-ups, oracles and
     bookkeeping between windows leave no records. *)
  if r.traced then Span.set_enabled true;
  let t0 = now () in
  let close () =
    let dt = now () -. t0 in
    if r.traced then Span.set_enabled false;
    let mw1 = Gc.minor_words () in
    let _, _, maj1 = Gc.counters () in
    let mc1 = (Gc.quick_stat ()).Gc.major_collections in
    r.wall_s <- r.wall_s +. dt;
    r.minor_words <- r.minor_words +. (mw1 -. mw0);
    r.major_words <- r.major_words +. (maj1 -. maj0);
    r.major_collections <- r.major_collections + (mc1 - mc0);
    drain r;
    dt
  in
  match Span.with_ ~name f with
  | v -> (v, close ())
  | exception e ->
    ignore (close () : float);
    raise e

(* Errors the library raises by type for a refused or impossible
   operation.  An op that raises one counts as failed; anything else is
   a bug and aborts the run. *)
let typed_failure = function
  | Ltree_exec.Read_snapshot.Stale _ | Ltree_doc.Journal.Replay_error _
  | Ltree_doc.Journal.Corrupt _ ->
    true
  | _ -> false

type kind = Write | Read | Other

(* [timed_op r kind f] is one measured op: counted as attempted, timed,
   and its latency sampled by [kind].  [None] when it failed by type. *)
let timed_op r kind f =
  r.attempted <- r.attempted + 1;
  match window r ~name:"bench.op" f with
  | v, dt ->
    (match kind with
     | Write -> Pct.add r.writes (dt *. 1e6)
     | Read -> Pct.add r.reads (dt *. 1e6)
     | Other -> ());
    Some (v, dt)
  | exception e when typed_failure e ->
    r.failed <- r.failed + 1;
    None

let op r kind f = Option.map fst (timed_op r kind f)

(* [maint r f] is a maintenance step: timed into the phase's wall time
   but not an op.  Returns the result and the step's duration. *)
let maint r f = window r ~name:"bench.maint" f

(* [refused r] records an op the system answered with a refusal
   ([Replica.read] error, [quiesce] = false). *)
let refused r = r.failed <- r.failed + 1

let ops r = r.attempted - r.failed

(* [check r ok what] records the first oracle failure. *)
let check r ok what =
  if (not ok) && Option.is_none r.mismatch then r.mismatch <- Some what

(* [observe r x ~damage] passes a read result to the oracle, damaging
   the one the test hook names. *)
let observe r x ~damage =
  r.results_seen <- r.results_seen + 1;
  match r.corrupt_read with
  | Some k when k = r.results_seen -> damage x
  | _ -> x

(* [ratio r name num den] adds to a per-layer ratio, reported as the
   pooled [sum num / sum den] (0 while the denominator is 0). *)
let ratio r name num den =
  let n, d = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt r.ratios name) in
  Hashtbl.replace r.ratios name (n +. num, d +. den)

let ratio_i r name num den = ratio r name (float_of_int num) (float_of_int den)

(* [count r name n] adds to a per-layer count, reported as the sum. *)
let count r name n =
  Hashtbl.replace r.counts name
    (float_of_int n +. Option.value ~default:0.0 (Hashtbl.find_opt r.counts name))

(* [sample r name v] adds to a pooled per-layer sample. *)
let sample r name v =
  let s =
    match Hashtbl.find_opt r.samples name with
    | Some s -> s
    | None ->
      let s = Pct.create () in
      Hashtbl.replace r.samples name s;
      s
  in
  Pct.add s v

let samples r name = Hashtbl.find_opt r.samples name

let set r name v = Hashtbl.replace r.finals name v

(* The reported value of a per-layer metric; 0 when nothing fed it. *)
let value r name =
  match Hashtbl.find_opt r.finals name with
  | Some v -> v
  | None -> (
    match Hashtbl.find_opt r.ratios name with
    | Some (n, d) -> if d > 0.0 then n /. d else 0.0
    | None -> Option.value ~default:0.0 (Hashtbl.find_opt r.counts name))

let per n d = if d <= 0 then 0.0 else float_of_int n /. float_of_int d
