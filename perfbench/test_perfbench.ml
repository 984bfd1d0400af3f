(* The benchmark's own tests: the percentile rule, the io meter, the
   self-time reconciliation, the oracle catching a corrupted result, and
   smoke-size runs that must emit exactly the metrics BENCHMARK.json
   declares. *)

open Perfbench
module Fault = Ltree_recovery.Fault
module Trace = Ltree_obs.Trace

(* Substring search for the few string checks below. *)
module Text = struct
  let find_from s i sub =
    let n = String.length s and m = String.length sub in
    let rec go j =
      if j + m > n then raise Not_found
      else if String.equal (String.sub s j m) sub then j
      else go (j + 1)
    in
    go i

  let find s sub = find_from s 0 sub
  let contains s sub = match find s sub with _ -> true | exception Not_found -> false
end

(* {1 Percentiles} *)

let test_percentiles () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (Pct.percentile a 50);
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 (Pct.percentile a 99);
  Alcotest.(check (float 0.0)) "p100 is the max" 100.0 (Pct.percentile a 100);
  Alcotest.(check (float 0.0)) "p50 of one" 7.0 (Pct.percentile [| 7.0 |] 50);
  Alcotest.(check (float 0.0)) "p50 of two is the lower" 1.0 (Pct.percentile [| 1.0; 2.0 |] 50);
  let supports n p = Pct.supports ~n p in
  Alcotest.(check bool) "p99 needs 1000" true (supports 1000 99);
  Alcotest.(check bool) "p99 refused at 999" false (supports 999 99);
  Alcotest.(check bool) "p90 at exactly 100" true (supports 100 90);
  Alcotest.(check bool) "p90 refused at 99" false (supports 99 90);
  Alcotest.(check bool) "p50 needs 20" true (supports 20 50);
  Alcotest.(check bool) "p50 refused at 19" false (supports 19 50);
  let s = Pct.create () in
  for i = 1 to 2500 do Pct.add s (float_of_int (2501 - i)) done;
  Alcotest.(check int) "buffer grows" 2500 (Pct.count s);
  Alcotest.(check (option (float 0.0))) "supported p99" (Some 2475.0) (Pct.supported s 99);
  Alcotest.(check (float 0.0)) "median of list" 2.5 (Pct.median_of_list [ 4.0; 1.0; 3.0; 2.0 ])

(* {1 Io meter} *)

let test_meter_script () =
  let m = Meter.create () in
  let _, io = Meter.sim_disk m in
  io.Fault.write_file "d/snapshot.tmp" "abcd";
  io.Fault.rename_file ~src:"d/snapshot.tmp" ~dst:"d/snapshot";
  io.Fault.append_file "d/journal" "xy";
  io.Fault.append_file "d/journal" "z";
  io.Fault.fsync "d/journal";
  Alcotest.(check (option string)) "read back" (Some "xyz") (io.Fault.read_file "d/journal");
  Alcotest.(check (option string)) "missing file" None (io.Fault.read_file "d/none");
  Alcotest.(check int) "written" 4 m.Meter.written;
  Alcotest.(check int) "appended" 3 m.Meter.appended;
  Alcotest.(check int) "journal bytes" 3 m.Meter.journal_bytes;
  Alcotest.(check int) "read bytes" 3 m.Meter.read;
  Alcotest.(check int) "fsyncs" 1 m.Meter.fsyncs;
  Alcotest.(check int) "snapshot writes" 1 m.Meter.snapshot_writes;
  Alcotest.(check int) "snapshot bytes" 4 m.Meter.snapshot_bytes;
  let d = Meter.diff m (Meter.create ()) in
  Alcotest.(check int) "diff against empty" 4 d.Meter.written;
  let s = Meter.sum [ m; m ] in
  Alcotest.(check int) "sum" 6 s.Meter.appended

(* Time lands on the primitive that spent it: only [fsync] is slow. *)
let test_meter_times () =
  let spin () =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.002 do () done
  in
  let base = Fault.sim_io (Fault.create_sim ()) in
  let m = Meter.create () in
  let io = Meter.wrap m { base with Fault.fsync = (fun p -> spin (); base.Fault.fsync p) } in
  io.Fault.write_file "f" "x";
  io.Fault.fsync "f";
  let fsync_s = List.assoc "fsync" (List.combine Meter.primitives (Array.to_list m.Meter.io_s)) in
  Alcotest.(check bool) "fsync holds the spin" true (fsync_s >= 0.002);
  Alcotest.(check bool) "the rest does not" true (Meter.io_total m -. fsync_s < 0.002);
  let s = Meter.sum [ m; m ] in
  Alcotest.(check (float 1e-9)) "sum adds times" (2.0 *. Meter.io_total m) (Meter.io_total s);
  Alcotest.(check (float 1e-9)) "diff subtracts them" 0.0 (Meter.io_total (Meter.diff m m))

(* Through a real store: every byte on the disk went through the meter. *)
let test_meter_store () =
  let m = Meter.create () in
  let sim, io = Meter.sim_disk m in
  let ldoc =
    Ltree_doc.Labeled_doc.of_document (Ltree_workload.Xml_gen.xmark ~seed:3 ~scale:0.1 ())
  in
  let d = Ltree_recovery.Durable_doc.initialize ~io ~dir:"s" ldoc in
  Ltree_recovery.Durable_doc.checkpoint d;
  let on_disk = List.fold_left (fun a (_, c) -> a + String.length c) 0 (Fault.dump sim) in
  Alcotest.(check bool) "some bytes" true (on_disk > 0);
  (* Two snapshot generations plus the journal header survive; every
     surviving byte was written through the meter at least once. *)
  Alcotest.(check bool) "metered >= on disk" true (m.Meter.written + m.Meter.appended >= on_disk);
  Alcotest.(check int) "two checkpoints" 2 m.Meter.snapshot_writes;
  Alcotest.(check bool) "fsynced" true (m.Meter.fsyncs >= 2)

(* {1 Reconciliation} *)

let record ?(domain = 0) path duration =
  let depth = List.length (String.split_on_char '/' path) - 1 in
  { Trace.name = Spans.leaf_name path; path; depth; domain; start = 0.0; duration;
    deltas = []; attrs = [] }

let test_reconcile () =
  let t = Spans.create () in
  List.iter (Spans.add t)
    [
      record "bench.op/relstore.join/query.descendants" 0.004;
      record "bench.op/relstore.join" 0.006;
      record "bench.op/xpath.eval" 0.003;
      record "bench.op" 0.010;
      record ~domain:1 "par_query.chunk" 0.005;
      record "bench.maint/exec.snapshot/ltree.insert" 0.001;
      record "bench.maint/exec.snapshot" 0.002;
      record "bench.maint" 0.002;
    ];
  let self = Spans.layer_self t in
  let get l = List.assoc l self in
  let close = Alcotest.(check (float 1e-12)) in
  close "relstore self = join self + plan self" 0.006 (get "relstore");
  close "xpath" 0.003 (get "xpath");
  close "exec" 0.001 (get "exec");
  close "core" 0.001 (get "core");
  close "bench keeps the rest" 0.001 (get "bench");
  close "worker domain not attributed" 0.0 (get "shard");
  close "self times sum to the roots" t.Spans.root_s
    (List.fold_left (fun a (_, s) -> a +. s) 0.0 self);
  close "exact wall reconciles" 0.0 (Spans.reconcile_error ~wall:0.012 self);
  close "5% slack" (0.0006 /. 0.0126) (Spans.reconcile_error ~wall:0.0126 self);
  close "unattributed share" (0.001 /. 0.0125) (Spans.unattributed_share ~wall:0.0125 self);
  close "tolerance: the share on a long phase" 0.05
    (Spans.tolerance ~share:0.05 ~floor_us:10.0 ~allowance_s:0.05 ~ops:1000 ~wall:10.0);
  close "tolerance: the allowance on a short phase" 0.2
    (Spans.tolerance ~share:0.05 ~floor_us:10.0 ~allowance_s:0.05 ~ops:5000 ~wall:0.5);
  close "mean span" 6000.0 (Spans.mean_us t "relstore.join");
  Alcotest.(check string) "library prefixes" "replication" (Spans.layer_of_name "repl.apply");
  Alcotest.(check string) "unknown is bench" "bench" (Spans.layer_of_name "harness.op")

(* {1 Oracles} *)

let test_oracle_unit () =
  Alcotest.(check bool) "damaged ids differ" false
    (Oracle.same_ids (Oracle.damage [ 1; 2; 3 ]) [ 1; 2; 3 ]);
  Alcotest.(check bool) "damaged empty differs" false (Oracle.same_ids (Oracle.damage []) []);
  let n = Ltree_xml.Dom.element "a" in
  Alcotest.(check bool) "damaged nodes differ" false
    (Oracle.same_nodes (Oracle.damage_nodes [ n ]) [ n ])

let smoke ?corrupt_read workload trace =
  Bench.run ?corrupt_read ~smoke:true ~workload ~seed:7 ~seconds:0.3 ~trace ()

let test_corrupted workload () =
  let res = smoke ~corrupt_read:2 workload 0 in
  Alcotest.(check bool) "run fails" false res.Bench.correct;
  match res.Bench.problem with
  | Some p ->
    Alcotest.(check bool) ("names the oracle: " ^ p) true
      (Text.contains p "differs")
  | None -> Alcotest.fail "no problem reported"

(* {1 Every declared metric, by name and unit} *)

let declared section =
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let from = Text.find json ("\"" ^ section ^ "\"") in
  let until = Text.find_from json (from + 1) "]" in
  String.sub json from (until - from)

let field key s =
    let rec go acc i =
      match Text.find_from s i ("\"" ^ key ^ "\": \"") with
      | exception Not_found -> List.rev acc
      | j ->
        let start = j + String.length key + 5 in
        let stop = String.index_from s start '"' in
        go (String.sub s start (stop - start) :: acc) stop
    in
    go [] 0

let metrics section =
  let body = declared section in
  List.combine (field "name" body) (field "unit" body)

let test_catalogue () =
  Alcotest.(check (list (pair string string))) "end_to_end" (metrics "end_to_end") Bench.end_to_end;
  Alcotest.(check (list (pair string string))) "per_layer" (metrics "per_layer") Bench.per_layer;
  Alcotest.(check (list string)) "workloads" (field "name" (declared "workloads"))
    (List.map (fun w -> w.Bench.name) Bench.workloads)

let test_smoke workload () =
  List.iter
    (fun (trace, expected) ->
      let res = smoke workload trace in
      (match res.Bench.problem with
       | Some p -> Alcotest.fail (workload ^ ": " ^ p)
       | None -> ());
      Alcotest.(check bool) "correct" true res.Bench.correct;
      Alcotest.(check bool) "attempted" true (res.Bench.attempted > 0);
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "trace %d metric names" trace)
        expected
        (List.map (fun (n, _, u) -> (n, u)) res.Bench.metrics);
      List.iter
        (fun (n, v, _) ->
          if not (Float.is_finite v) then Alcotest.fail (n ^ " is not finite"))
        res.Bench.metrics;
      if trace = 0 then
        List.iter
          (fun (n, v, _) -> if v <= 0.0 then Alcotest.fail (n ^ " is not positive"))
          res.Bench.metrics
      else
        Alcotest.(check (float 0.0)) "no span dropped" 0.0
          (List.assoc "obs.spans_dropped" (List.map (fun (n, v, _) -> (n, v)) res.Bench.metrics)))
    [ (0, Bench.end_to_end); (1, Bench.per_layer) ]

let () =
  let per_workload f = List.map (fun w -> Alcotest.test_case w.Bench.name `Quick (f w.Bench.name)) Bench.workloads in
  Alcotest.run "perfbench"
    [
      ("percentiles", [ Alcotest.test_case "nearest rank and support" `Quick test_percentiles ]);
      ( "meter",
        [ Alcotest.test_case "scripted sim" `Quick test_meter_script;
          Alcotest.test_case "time per primitive" `Quick test_meter_times;
          Alcotest.test_case "durable store" `Quick test_meter_store ] );
      ("reconcile", [ Alcotest.test_case "self time arithmetic" `Quick test_reconcile ]);
      ( "oracle",
        Alcotest.test_case "damage is caught" `Quick test_oracle_unit
        :: per_workload test_corrupted );
      ("catalogue", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalogue ]);
      ("smoke", per_workload test_smoke);
    ]
