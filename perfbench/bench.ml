(* The benchmark proper: the metric catalogue, the workloads, and the
   phases one invocation runs.

   [--trace 0]: run a closed loop — one client, one op at a time — for
   the given seconds with tracing off, in whole epochs of fresh set-ups
   for the workloads that grow their documents, and report the
   end-to-end metrics.  [setup_s] is the median over every set-up the
   run made: one per epoch, or five up front for a workload without
   epochs.  The loop runs past the seconds while the write or read
   sample is still too small for its p50.  [--trace 1]: an untraced
   phase of half the seconds (no sample floor: it reports no p50) gives
   the per-layer counts; a fresh set-up with the same seed then replays
   exactly as many ops with spans on, which gives the per-layer times,
   the self-time split and the tracing overhead. *)

module Span = Ltree_obs.Span

(* [epoch_ops] bounds how many ops one set-up serves: the writing
   workloads grow their documents, so they are set up afresh (with a
   seed derived from the run's) after that many ops, keeping every
   epoch at the workload's defined size and on the same trajectory. *)
type workload = {
  name : string;
  why : string;
  setup : Ctx.t -> Ctx.instance;
  epoch_ops : smoke:bool -> int option;
}

let workloads =
  [
    { name = "edit"; setup = W_edit.setup;
      epoch_ops = (fun ~smoke -> Some (if smoke then 100 else 1000));
      why = "write path: L-Tree relabel, rel-store sync, journal and checkpoint, replica shipping" };
    { name = "query"; setup = W_query.setup; epoch_ops = (fun ~smoke:_ -> None);
      why = "read path at n=50000: XPath, relational joins through a small buffer pool, parallel plans" };
    { name = "mixed"; setup = W_mixed.setup;
      epoch_ops = (fun ~smoke -> Some (if smoke then 60 else 500));
      why = "sharded document, every read follows a write: shard routing, per-shard repair and refresh" };
    { name = "restart"; setup = W_restart.setup;
      epoch_ops = (fun ~smoke -> Some (W_restart.ops_per_cycle ~smoke * if smoke then 2 else 6));
      why = "crash recovery, rel-store resync and replica catch-up after a severed channel" };
  ]

let end_to_end =
  [
    ("setup_s", "s"); ("ops_per_s", "ops/s"); ("write_p50_us", "us");
    ("read_p50_us", "us"); ("label_bits", "bits"); ("peak_heap_mb", "MiB");
  ]

(* Per-layer metrics, plus the end-to-end figures that do not exist on
   every workload (they read 0 where they do not apply or where the
   sample is too small for the percentile). *)
let per_layer =
  List.concat_map
    (fun (layer, ms) -> List.map (fun (m, u) -> (layer ^ "." ^ m, u)) ms)
    [
      ("core", [ ("relabels_per_write", "count"); ("splits_per_write", "count"); ("self_us", "us") ]);
      ("doc", [ ("snapshot_bytes", "bytes"); ("self_us", "us") ]);
      ( "relstore",
        [ ("flush_us", "us"); ("rows_per_flush", "count"); ("join_us", "us");
          ("comparisons_per_read", "count"); ("page_reads_per_read", "count");
          ("join_minor_words", "words"); ("index_repairs_per_read", "count");
          ("merged_rows_per_repair", "count"); ("full_rebuilds", "count");
          ("self_us", "us") ] );
      ( "recovery",
        [ ("io_us", "us") ]
        @ List.map (fun p -> ("io_" ^ p ^ "_us", "us")) Meter.primitives
        @ [ ("fsyncs_per_write", "count");
          ("journal_bytes_per_write", "bytes"); ("read_bytes_per_write", "bytes");
          ("checkpoints", "count"); ("write_points_per_write", "count");
          ("recover_us", "us"); ("replayed_per_recover", "count"); ("self_us", "us") ] );
      ( "replication",
        [ ("apply_us", "us"); ("frames_per_write", "count"); ("retries", "count");
          ("bad_frames", "count"); ("catchup_us", "us");
          ("snapshots_installed", "count"); ("self_us", "us") ] );
      ( "exec",
        [ ("par_us", "us"); ("snapshot_us", "us"); ("claims_per_job", "count");
          ("serial_job_share", "ratio"); ("worker_share_min", "ratio"); ("self_us", "us") ] );
      ( "shard",
        [ ("apply_us", "us"); ("read_us", "us"); ("checkpoint_us", "us");
          ("shards_per_read", "count"); ("rebalances", "count"); ("self_us", "us") ] );
      ( "xpath",
        [ ("parse_us", "us"); ("eval_us", "us"); ("refresh_us", "us"); ("self_us", "us") ] );
      ( "gc",
        [ ("minor_words_per_op", "words"); ("major_words_per_op", "words");
          ("major_collections", "count") ] );
      ("obs", [ ("trace_overhead", "ratio"); ("spans_dropped", "count") ]);
      ( "bench",
        [ ("unattributed_us", "us"); ("reconcile_error", "ratio"); ("writes", "count");
          ("reads", "count") ] );
    ]
  @ [
      ("write_p99_us", "us"); ("read_p99_us", "us"); ("replica_delay_p99_ops", "writes");
      ("write_amp", "ratio"); ("failed_frac", "ratio"); ("recover_p50_ms", "ms");
      ("recover_p90_ms", "ms"); ("catchup_rec_per_s", "records/s");
    ]

(* Per-layer times come from the traced phase: the mean duration of the
   benchmark's own span around each kind of call. *)
let span_means =
  [
    ("relstore.flush_us", "relstore.sync"); ("relstore.join_us", "relstore.join");
    ("recovery.recover_us", "recovery.restart");
    ("replication.apply_us", "replication.session_apply");
    ("replication.catchup_us", "replication.catchup");
    ("exec.par_us", "exec.par_read"); ("exec.snapshot_us", "exec.snapshot");
    ("shard.apply_us", "shard.apply"); ("shard.read_us", "shard.read");
    ("shard.checkpoint_us", "shard.checkpoint"); ("xpath.parse_us", "xpath.parse");
    ("xpath.eval_us", "xpath.eval"); ("xpath.refresh_us", "xpath.refresh");
  ]

(* A traced phase must reconcile: layer self times plus the unattributed
   remainder within the tolerance of the timed windows' wall time, and
   the unattributed remainder itself within it.  The tolerance is 5% of
   the wall time, but at least 10 us per op plus 50 ms: closing a span
   has a fixed cost that lands in its parent, and a GC or scheduling
   pause lands wherever it strikes.  Both are under 1% of a traced
   phase of real size (seconds of ops of a millisecond or more); on a
   smoke-size run (tens of milliseconds of ~100 us ops) they exceed 5%,
   and there the check only catches gross misses. *)
let reconcile_tolerance = 0.05
let reconcile_floor_us = 10.0
let reconcile_allowance_s = 0.05

(* Set-ups made up front, for [setup_s], by a workload without epochs. *)
let setups = 5

(* A phase stops at this many seconds (or twice its budget, if more)
   even when its samples are still too small. *)
let phase_cap_s = 60.0

let span_capacity = 1 lsl 16

(* Empties the heap of the previous set-up's garbage, outside any timed
   window.  A full major collection, not [Gc.compact]: under OCaml
   5.1.1, [Gc.compact] between epochs made [restart] at seed 7 abort
   repeatably in its sixth epoch with "allocation failure during minor
   GC" (the runtime asked the kernel for ~1 TiB), and [Gc.full_major]
   in the same place runs clean. *)
let settle () = Gc.full_major ()

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  header : (string * string) list;  (** JSON-ready values *)
  problem : string option;
}

let nproc () = Domain.recommended_domain_count ()

(* {1 Library defaults, probed from outside} *)

(* The buffer pool's default capacity: touch more pages than any
   plausible default and count what stays resident. *)
let default_pager_capacity () =
  let p = Ltree_relstore.Pager.create (Ltree_metrics.Counters.create ()) in
  let table = Ltree_relstore.Pager.fresh_table_id p in
  for page = 0 to 4095 do
    Ltree_relstore.Pager.touch p ~table ~page
  done;
  Ltree_relstore.Pager.resident p

(* The shard journals' default group commit: writes until one shard's
   buffer drains. *)
let default_shard_group_commit () =
  let open Ltree_xml in
  let root = Dom.element "site" in
  let region = Dom.element "regions" in
  Dom.append_child root region;
  let sd = Ltree_shard.Sharded_doc.create ~shards:1 (Dom.document root) in
  let router = Ltree_shard.Sharded_doc.router sd in
  let anchor () =
    let r = Option.get (Ltree_doc.Labeled_doc.document router).Dom.root in
    let first = List.hd (Dom.children r) in
    (Ltree_doc.Labeled_doc.label router first).Ltree_doc.Labeled_doc.start_pos
  in
  let rec go k =
    if k > 1024 then 0
    else begin
      Ltree_shard.Sharded_doc.apply sd
        (Ltree_doc.Journal.Insert { anchor = anchor (); index = 0; xml = "<x/>" });
      if Ltree_recovery.Durable_doc.pending (Ltree_shard.Sharded_doc.shard_durable sd 0) = 0
      then k
      else go (k + 1)
    end
  in
  go 1

let defaults () =
  let params = Ltree_core.Ltree.params (Ltree_core.Ltree.create ()) in
  let cfg = Ltree_replication.Session.default_config in
  [
    ("f", params.Ltree_core.Params.f); ("s", params.Ltree_core.Params.s);
    ("group_commit", cfg.Ltree_replication.Session.group_commit);
    ("checkpoint_every", cfg.Ltree_replication.Session.checkpoint_every);
    ("pager_capacity", default_pager_capacity ());
    ("shard_group_commit", default_shard_group_commit ());
  ]

(* {1 Phases} *)

(* [p50_supported r] holds when both latency samples are large enough
   for their p50 under the {!Pct} rule. *)
let p50_supported r =
  Pct.supports ~n:(Pct.count r.Run.writes) 50 && Pct.supports ~n:(Pct.count r.Run.reads) 50

(* [run_phase w ctx r first ~until] runs epochs until the phase's end:
   the first on the already set-up [first], each later one on a fresh
   set-up after a full major collection (all outside timed windows).  A
   [`Seconds] phase with [~floor] also goes on while {!p50_supported}
   fails.  An epoch, once started, runs to completion, so a phase is
   made of whole epochs and every run samples the same within-epoch
   trajectory; a hard cap ({!phase_cap_s}) bounds a pathologically slow
   one.  Each
   epoch ends with the instance's oracles and value accounting.
   Returns the primary tree's bits per label at the end and the set-up
   times of every instance the phase ran, [first]'s included. *)
let run_phase ?(floor = false) w (ctx : Ctx.t) r (first : Ctx.instance) ~until =
  let start = Run.now () in
  let ok () = Option.is_none r.Run.mismatch in
  let capped () =
    match until with
    | `Seconds s -> Run.now () -. start >= Float.max (2.0 *. s) phase_cap_s
    | `Ops n -> r.Run.attempted >= n
  in
  let more () =
    match until with
    | `Seconds s ->
      (Run.now () -. start < s || (floor && not (p50_supported r))) && not (capped ())
    | `Ops n -> r.Run.attempted < n
  in
  let epoch_ops = w.epoch_ops ~smoke:ctx.Ctx.smoke in
  let rec epoch k (inst : Ctx.instance) setup_times =
    let setup_times = inst.Ctx.setup_s :: setup_times in
    let base = r.Run.attempted in
    let go () =
      match epoch_ops with
      | Some n -> r.Run.attempted - base < n && not (capped ())
      | None -> more ()
    in
    let bits =
      Fun.protect ~finally:inst.Ctx.teardown (fun () ->
          while ok () && go () do
            inst.Ctx.step r
          done;
          if ok () then inst.Ctx.finish r;
          inst.Ctx.label_bits ())
    in
    if ok () && more () then begin
      settle ();
      epoch (k + 1)
        (w.setup { ctx with Ctx.seed = Hashtbl.hash (ctx.Ctx.seed, k + 1) })
        setup_times
    end
    else (bits, setup_times)
  in
  epoch 0 first []

let quote s = "\"" ^ Ltree_obs.Trace.json_escape s ^ "\""

let header ~workload ~seed ~seconds ~trace ~(ctx : Ctx.t) ~epoch_ops ~setups r sizes =
  let ints l = List.map (fun (k, v) -> (k, string_of_int v)) l in
  [
    ("workload", quote workload); ("seed", string_of_int seed);
    ("seconds", Printf.sprintf "%g" seconds); ("trace", string_of_int trace);
    ("smoke", string_of_bool ctx.Ctx.smoke); ("nproc", string_of_int (nproc ()));
    ("pool_size", string_of_int ctx.Ctx.pool_size);
    ("ocaml", quote Sys.ocaml_version); ("clients", "1"); ("loop", quote "closed");
    ("setups", string_of_int setups);
    ("writes", string_of_int (Pct.count r.Run.writes));
    ("reads", string_of_int (Pct.count r.Run.reads));
    ("epoch_ops", match epoch_ops with Some n -> string_of_int n | None -> "null");
    ("recorder", quote (if Ltree_obs.Recorder.is_enabled () then "on" else "off"));
    ("causal", quote (if Ltree_obs.Causal.is_enabled () then "on" else "off"));
    ("reconcile_tolerance", Printf.sprintf "%g" reconcile_tolerance);
    ("reconcile_floor_us_per_op", Printf.sprintf "%g" reconcile_floor_us);
    ("reconcile_allowance_s", Printf.sprintf "%g" reconcile_allowance_s);
    ("disks", quote "simulated (Fault.create_sim)");
  ]
  @ ints sizes
  @ ints (defaults ())

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Values every workload gets from the phase itself. *)
let common_values r =
  let ops = Run.ops r in
  let perf x = if ops > 0 then x /. float_of_int ops else 0.0 in
  Run.set r "gc.minor_words_per_op" (perf r.Run.minor_words);
  Run.set r "gc.major_words_per_op" (perf r.Run.major_words);
  Run.set r "gc.major_collections" (float_of_int r.Run.major_collections);
  Run.set r "bench.writes" (float_of_int (Pct.count r.Run.writes));
  Run.set r "bench.reads" (float_of_int (Pct.count r.Run.reads));
  Run.set r "failed_frac" (Run.per r.Run.failed r.Run.attempted);
  let pct name sample p =
    Option.iter
      (fun s -> Option.iter (Run.set r name) (Pct.supported s p))
      sample
  in
  pct "write_p99_us" (Some r.Run.writes) 99;
  pct "read_p99_us" (Some r.Run.reads) 99;
  pct "replica_delay_p99_ops" (Run.samples r "replica_delay") 99;
  pct "recover_p50_ms" (Run.samples r "recover_ms") 50;
  pct "recover_p90_ms" (Run.samples r "recover_ms") 90

let traced_values ~untraced r =
  let ops = Run.ops r in
  let per_op s = if ops > 0 then s *. 1e6 /. float_of_int ops else 0.0 in
  let self = Spans.layer_self r.Run.spans in
  List.iter
    (fun (layer, s) ->
      let name = if String.equal layer "bench" then "bench.unattributed_us" else layer ^ ".self_us" in
      Run.set r name (per_op s))
    self;
  List.iter (fun (metric, span) -> Run.set r metric (Spans.mean_us r.Run.spans span)) span_means;
  Run.set r "bench.reconcile_error" (Spans.reconcile_error ~wall:r.Run.wall_s self);
  Run.set r "obs.spans_dropped" (float_of_int r.Run.spans_dropped);
  Run.set r "obs.trace_overhead"
    (if untraced.Run.wall_s > 0.0 then r.Run.wall_s /. untraced.Run.wall_s else 0.0)

(* A layer metric timed in microseconds comes from the traced phase;
   every other value (counts, ratios, end-to-end figures) from the
   untraced one. *)
let from_traced (name, unit) =
  (String.contains name '.' && String.equal unit "us")
  || List.mem name [ "obs.trace_overhead"; "obs.spans_dropped"; "bench.reconcile_error" ]

let run ?corrupt_read ?(smoke = false) ~workload ~seed ~seconds ~trace () =
  let w =
    match List.find_opt (fun w -> String.equal w.name workload) workloads with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  let ctx = { Ctx.seed; smoke; pool_size = min 2 (nproc ()) } in
  let epoch_ops = w.epoch_ops ~smoke in
  Span.set_enabled false;
  Ltree_obs.Causal.set_enabled false;
  (* A workload without epochs is set up several times for [setup_s];
     the last set-up serves the phase. *)
  let upfront = ref [] and inst = ref None in
  for _ = 1 to (if trace = 0 && Option.is_none epoch_ops then setups else 1) do
    Option.iter (fun (i : Ctx.instance) -> i.Ctx.teardown ()) !inst;
    inst := None;
    settle ();
    let i = w.setup ctx in
    inst := Some i;
    upfront := i.Ctx.setup_s :: !upfront
  done;
  let first = Option.get !inst in
  inst := None;
  (* Only the sizes outlive the first epoch: the instance itself must
     not stay reachable while later epochs run. *)
  let sizes = first.Ctx.header in
  let r = Run.create ?corrupt_read ~traced:false () in
  (* A traced invocation splits its time: half untraced, then the same
     number of ops traced (which takes about the overhead ratio more). *)
  let budget = if trace = 0 then seconds else seconds /. 2.0 in
  let bits, setup_times = run_phase ~floor:(trace = 0) w ctx r first ~until:(`Seconds budget) in
  (* [first] is counted by the phase too. *)
  let setup_times = List.tl !upfront @ setup_times in
  let hdr =
    header ~workload ~seed ~seconds ~trace ~ctx ~epoch_ops
      ~setups:(List.length setup_times) r sizes
  in
  common_values r;
  if trace = 0 then begin
    let correct, problem =
      match r.Run.mismatch with Some m -> (false, Some m) | None -> (true, None)
    in
    let e2e =
      [
        ("setup_s", Some (Pct.median_of_list setup_times));
        ("ops_per_s", if r.Run.wall_s > 0.0 then Some (float_of_int (Run.ops r) /. r.Run.wall_s) else None);
        ("write_p50_us", Pct.supported r.Run.writes 50);
        ("read_p50_us", Pct.supported r.Run.reads 50);
        ("label_bits", Some (float_of_int bits));
        ("peak_heap_mb", Some (peak_heap_mb ()));
      ]
    in
    let missing = List.filter_map (fun (n, v) -> if Option.is_none v then Some n else None) e2e in
    let problem =
      match (problem, missing) with
      | Some p, _ -> Some p
      | None, [] -> None
      | None, ms ->
        Some
          (Printf.sprintf "sample too small for %s (%d writes, %d reads)"
             (String.concat ", " ms) (Pct.count r.Run.writes) (Pct.count r.Run.reads))
    in
    {
      correct = correct && Option.is_none problem;
      attempted = r.Run.attempted; failed = r.Run.failed;
      metrics =
        List.map
          (fun (n, u) -> (n, Option.value ~default:0.0 (List.assoc n e2e), u))
          end_to_end;
      header = hdr; problem;
    }
  end
  else begin
    settle ();
    let traced_first = w.setup ctx in
    let t = Run.create ~traced:true () in
    Span.set_capacity span_capacity;
    Span.reset ();
    ignore (run_phase w ctx t traced_first ~until:(`Ops r.Run.attempted) : int * float list);
    traced_values ~untraced:r t;
    let problem =
      match (r.Run.mismatch, t.Run.mismatch) with
      | Some p, _ | None, Some p -> Some p
      | None, None ->
        if t.Run.spans_dropped > 0 then
          Some (Printf.sprintf "%d span records dropped" t.Run.spans_dropped)
        else
          let tol =
            Spans.tolerance ~share:reconcile_tolerance ~floor_us:reconcile_floor_us
              ~allowance_s:reconcile_allowance_s ~ops:t.Run.attempted ~wall:t.Run.wall_s
          in
          let unattributed =
            Spans.unattributed_share ~wall:t.Run.wall_s (Spans.layer_self t.Run.spans)
          in
          if Run.value t "bench.reconcile_error" > tol then
            Some
              (Printf.sprintf
                 "layer self times miss the traced wall time by %.1f%% (tolerance %.1f%%)"
                 (100.0 *. Run.value t "bench.reconcile_error") (100.0 *. tol))
          else if unattributed > tol then
            Some
              (Printf.sprintf
                 "%.1f%% of the traced wall time is in no layer (tolerance %.1f%%)"
                 (100.0 *. unattributed) (100.0 *. tol))
          else None
    in
    {
      correct = Option.is_none problem;
      attempted = r.Run.attempted; failed = r.Run.failed;
      metrics =
        List.map
          (fun ((n, u) as m) -> (n, Run.value (if from_traced m then t else r) n, u))
          per_layer;
      header = hdr; problem;
    }
  end

(* {1 Output} *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let header_line res =
  "{\"header\": {"
  ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ v) res.header)
  ^ "}}"

let result_line res =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    res.correct res.attempted res.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote n) (json_number v) (quote u))
          res.metrics))
