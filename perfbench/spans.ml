(* Per-layer self time from the span records of a traced run.

   The benchmark wraps each call it makes into a layer in a span named
   [<layer>.<call>], under one root span per measured op or maintenance
   step; the spans the library opens itself ([ltree.insert_batch],
   [recovery.checkpoint], [query.descendants], ...) nest below them.
   A span's self time is its duration minus the durations of its direct
   children on the same domain, and a layer's self time is the sum over
   the spans whose leaf name maps to it.  Only the submitting domain
   (domain 0) is attributed: worker-domain spans run in parallel with
   it, and its own spans already cover the wall time it waits for them.

   Because the root spans are attributed too (to [bench]), the layer
   self times telescope to the root durations.  Reconciliation compares
   that sum with the timed windows' wall time, which the benchmark
   measures itself around each root span; a lost or misnested record
   shows as a gap.  A layer the benchmark forgot to wrap shows instead
   as root self time, [bench.unattributed_us], which the runner bounds
   separately. *)

module Trace = Ltree_obs.Trace

let layers =
  [ "core"; "doc"; "relstore"; "recovery"; "replication"; "exec"; "shard";
    "xpath" ]

(* The layer a span belongs to, from its leaf name's prefix.  Library
   spans use module-ish prefixes ([ltree.], [query.], [repl.],
   [par_query.]); the benchmark's own spans use the layer name itself.
   Anything else — the benchmark's root spans included — is [bench]. *)
let layer_of_name name =
  let prefix =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match prefix with
  | "ltree" | "core" -> "core"
  | "doc" -> "doc"
  | "relstore" | "query" | "pager" -> "relstore"
  | "recovery" -> "recovery"
  | "repl" | "replication" -> "replication"
  | "par_query" | "exec" -> "exec"
  | "shard" -> "shard"
  | "xpath" -> "xpath"
  | _ -> "bench"

type t = {
  by_path : (string, float) Hashtbl.t;  (** domain-0 seconds per span path *)
  by_name : (string, float * int) Hashtbl.t;
      (** domain-0 seconds and count per leaf span name *)
  mutable root_s : float;  (** domain-0 seconds in depth-0 spans *)
}

let create () =
  {
    by_path = Hashtbl.create 64; by_name = Hashtbl.create 64; root_s = 0.0;
  }

let add t (r : Trace.record) =
  if r.Trace.domain = 0 then begin
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.by_path r.Trace.path) in
    Hashtbl.replace t.by_path r.Trace.path (prev +. r.Trace.duration);
    let s, n =
      Option.value ~default:(0.0, 0) (Hashtbl.find_opt t.by_name r.Trace.name)
    in
    Hashtbl.replace t.by_name r.Trace.name (s +. r.Trace.duration, n + 1);
    if r.Trace.depth = 0 then t.root_s <- t.root_s +. r.Trace.duration
  end

let parent_path p =
  match String.rindex_opt p '/' with
  | Some i -> Some (String.sub p 0 i)
  | None -> None

let leaf_name p =
  match String.rindex_opt p '/' with
  | Some i -> String.sub p (i + 1) (String.length p - i - 1)
  | None -> p

(* [self_by_path t] is each path's total minus its direct children's. *)
let self_by_path t =
  let self = Hashtbl.copy t.by_path in
  Hashtbl.iter
    (fun p total ->
      match parent_path p with
      | Some q when Hashtbl.mem self q ->
        Hashtbl.replace self q (Hashtbl.find self q -. total)
      | _ -> ())
    t.by_path;
  self

(* [layer_self t] is the self seconds of every layer in {!layers} plus
   ["bench"], in that order. *)
let layer_self t =
  let acc = Hashtbl.create 16 in
  Hashtbl.iter
    (fun p s ->
      let l = layer_of_name (leaf_name p) in
      Hashtbl.replace acc l (s +. Option.value ~default:0.0 (Hashtbl.find_opt acc l)))
    (self_by_path t);
  List.map
    (fun l -> (l, Option.value ~default:0.0 (Hashtbl.find_opt acc l)))
    (layers @ [ "bench" ])

(* [mean_us t name] is the mean duration in microseconds of the spans
   called [name] (0 when none ran). *)
let mean_us t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (s, n) when n > 0 -> s *. 1e6 /. float_of_int n
  | _ -> 0.0

(* [reconcile_error ~wall self] is how far the summed self times miss
   the timed windows' wall time, as a share of it. *)
let reconcile_error ~wall self =
  let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 self in
  if wall <= 0.0 then 0.0 else Float.abs (total -. wall) /. wall

(* [unattributed_share ~wall self] is the self time left in no layer
   (the root spans' own), as a share of the wall time. *)
let unattributed_share ~wall self =
  if wall <= 0.0 then 0.0 else List.assoc "bench" self /. wall

(* [tolerance ~share ~floor_us ~allowance_s ~ops ~wall] is how large a
   share of [wall] the two shares above may reach: [share], but at
   least [floor_us] per op plus [allowance_s]. *)
let tolerance ~share ~floor_us ~allowance_s ~ops ~wall =
  if wall <= 0.0 then share
  else Float.max share ((allowance_s +. (floor_us *. 1e-6 *. float_of_int ops)) /. wall)
