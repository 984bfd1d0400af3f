(* The multicore execution layer: pool mechanics, snapshot freshness,
   and — the load-bearing property — determinism: every parallel plan
   must return element-for-element what the serial plan returns, for
   every pool size, on every document.  See DESIGN.md §11. *)

open Ltree_xml
open Ltree_relstore
module Counters = Ltree_metrics.Counters
module Labeled_doc = Ltree_doc.Labeled_doc
module Xml_gen = Ltree_workload.Xml_gen
module Pool = Ltree_exec.Pool
module Read_snapshot = Ltree_exec.Read_snapshot
module Par_query = Ltree_exec.Par_query

let case = Alcotest.test_case

(* {1 Pool mechanics} *)

let covers_range_once () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let n = 10_000 in
          let hits = Array.make n 0 in
          (* Disjoint chunks: no two participants share a slot, so the
             unsynchronised increments are race-free by construction. *)
          Pool.parallel_for ~chunk:64 pool ~lo:0 ~hi:n (fun lo hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Alcotest.(check bool)
            (Printf.sprintf "size %d: every index run exactly once" size)
            true
            (Array.for_all (fun c -> c = 1) hits)))
    [ 1; 2; 4 ]

let map_preserves_order () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let input = Array.init 1_000 (fun i -> i) in
          let out = Pool.map ~chunk:7 pool (fun i -> i * i) input in
          Alcotest.(check bool)
            (Printf.sprintf "size %d: map order" size)
            true
            (Array.for_all (fun i -> out.(i) = i * i) input)))
    [ 1; 2; 4 ]

let exceptions_propagate () =
  Pool.with_pool ~size:2 (fun pool ->
      let raised =
        try
          Pool.parallel_for ~chunk:8 pool ~lo:0 ~hi:1_000 (fun lo _ ->
              if lo >= 496 then failwith "chunk boom");
          false
        with Failure m -> String.equal m "chunk boom"
      in
      Alcotest.(check bool) "body failure reaches the caller" true raised;
      (* The pool survives a failed job. *)
      let total = Atomic.make 0 in
      Pool.parallel_for ~chunk:16 pool ~lo:0 ~hi:100 (fun lo hi ->
          ignore (Atomic.fetch_and_add total (hi - lo)));
      Alcotest.(check int) "pool usable after failure" 100 (Atomic.get total))

let reentrant_runs_inline () =
  Pool.with_pool ~size:2 (fun pool ->
      let inner_total = Atomic.make 0 in
      Pool.parallel_for ~chunk:16 pool ~lo:0 ~hi:64 (fun _ _ ->
          (* A nested submission must not deadlock on the job slot. *)
          Pool.parallel_for ~chunk:4 pool ~lo:0 ~hi:8 (fun lo hi ->
              ignore (Atomic.fetch_and_add inner_total (hi - lo))));
      Alcotest.(check bool) "nested parallel_for completed" true
        (Atomic.get inner_total > 0))

let stats_account_for_work () =
  Pool.with_pool ~size:2 (fun pool ->
      Pool.parallel_for ~chunk:10 pool ~lo:0 ~hi:1_000 (fun _ _ -> ());
      Pool.parallel_for ~chunk:8 pool ~lo:0 ~hi:3 (fun _ _ -> ());
      let s = Pool.stats pool in
      Alcotest.(check int) "size" 2 s.Pool.size;
      Alcotest.(check int) "one parallel job" 1 s.Pool.parallel_jobs;
      Alcotest.(check int) "tiny range ran serial" 1 s.Pool.serial_jobs;
      Alcotest.(check int) "100 chunks accounted" 100 s.Pool.chunk_tasks;
      Alcotest.(check int) "per-worker tallies sum to the chunk count"
        100
        (Array.fold_left ( + ) 0 s.Pool.per_worker));
  Pool.with_pool ~size:1 (fun pool ->
      Pool.parallel_for ~chunk:10 pool ~lo:0 ~hi:1_000 (fun _ _ -> ());
      let s = Pool.stats pool in
      Alcotest.(check int) "size-1 pools only run serial jobs" 0
        s.Pool.parallel_jobs;
      Alcotest.(check int) "the job still ran" 1 s.Pool.serial_jobs)

(* {1 Determinism: parallel plans == serial plans} *)

let setup_generated ~seed ~nodes =
  let doc =
    Xml_gen.generate ~seed (Xml_gen.default_profile ~target_nodes:nodes ())
  in
  let ldoc = Labeled_doc.of_document doc in
  let counters = Counters.create () in
  let pager = Pager.create counters in
  let store = Shredder.shred_label pager ldoc in
  (doc, ldoc, pager, store)

(* Tags that actually have rows, most populous first, so the tag pairs
   below exercise non-trivial joins. *)
let busy_tags snap =
  Read_snapshot.tags snap
  |> List.map (fun t -> (t, (Read_snapshot.slice snap t).Read_snapshot.s_len))
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  |> List.map fst

let check_same what expected got =
  Alcotest.(check (list int)) what expected got

let parallel_matches_serial () =
  List.iter
    (fun seed ->
      let _, ldoc, pager, store = setup_generated ~seed ~nodes:2_000 in
      let snap = Read_snapshot.of_store pager store ldoc in
      let tags =
        match busy_tags snap with
        | a :: b :: c :: _ -> [ a; b; c ]
        | ts -> ts
      in
      let pairs =
        List.concat_map (fun a -> List.map (fun d -> (a, d)) tags) tags
      in
      List.iter
        (fun size ->
          Pool.with_pool ~size (fun pool ->
              List.iter
                (fun (anc, desc) ->
                  let label = Printf.sprintf "seed %d size %d %s//%s" seed size anc desc in
                  check_same (label ^ " descendants")
                    (Query.label_descendants pager store ~anc ~desc)
                    (Par_query.descendants pool snap ~anc ~desc);
                  check_same (label ^ " children")
                    (Query.label_children pager store ~parent:anc ~child:desc)
                    (Par_query.children pool snap ~parent:anc ~child:desc);
                  check_same (label ^ " inl")
                    (Query.label_descendants_inl pager store ~anc ~desc)
                    (Par_query.descendants_inl pool snap ~anc ~desc))
                pairs;
              (match tags with
              | t1 :: t2 :: t3 :: _ ->
                check_same
                  (Printf.sprintf "seed %d size %d path" seed size)
                  (Query.label_path pager store [ t1; t2; t3 ])
                  (Par_query.path pool snap [ t1; t2; t3 ])
              | _ -> ());
              let batch = Array.of_list pairs in
              let serial =
                Array.map
                  (fun (anc, desc) ->
                    Query.label_descendants pager store ~anc ~desc)
                  batch
              in
              let par = Par_query.descendants_batch pool snap batch in
              Array.iteri
                (fun i expected ->
                  check_same
                    (Printf.sprintf "seed %d size %d batch[%d]" seed size i)
                    expected par.(i))
                serial))
        [ 1; 2; 4 ])
    [ 7; 21; 99 ]

(* {1 Snapshot freshness} *)

let staleness_detected () =
  let doc = Parser.parse_string "<a><b><c/></b><b><c/><d/></b></a>" in
  let ldoc = Labeled_doc.of_document doc in
  let counters = Counters.create () in
  let pager = Pager.create counters in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  let snap = Read_snapshot.of_store pager store ldoc in
  Alcotest.(check bool) "fresh after freeze" true (Read_snapshot.is_fresh snap);
  let root = Option.get doc.root in
  Labeled_doc.insert_subtree ldoc ~parent:root ~index:1
    (Parser.parse_fragment "<b><c/></b>");
  Alcotest.(check bool) "stale after mutation" false
    (Read_snapshot.is_fresh snap);
  Pool.with_pool ~size:2 (fun pool ->
      (match Par_query.descendants pool snap ~anc:"b" ~desc:"c" with
      | _ -> Alcotest.fail "stale snapshot answered a query"
      | exception Read_snapshot.Stale _ -> ());
      ignore (Label_sync.flush sync);
      let snap' = Read_snapshot.refresh snap in
      Alcotest.(check bool) "refresh rebuilds" true
        (Read_snapshot.is_fresh snap');
      check_same "refreshed snapshot sees the insert"
        (Query.label_descendants pager store ~anc:"b" ~desc:"c")
        (Par_query.descendants pool snap' ~anc:"b" ~desc:"c"))

(* Two domains querying through mutate/flush/refresh cycles: the rebuilt
   snapshot must agree with the serial plans after every round. *)
let mutate_refresh_stress () =
  let doc, ldoc, pager, store = setup_generated ~seed:5 ~nodes:800 in
  let sync = Label_sync.create pager store ldoc in
  let snap = ref (Read_snapshot.of_store pager store ldoc) in
  let root = Option.get doc.root in
  Pool.with_pool ~size:2 (fun pool ->
      for round = 1 to 8 do
        let anchor_index = round mod (1 + List.length (Dom.children root)) in
        Labeled_doc.insert_subtree ldoc ~parent:root ~index:anchor_index
          (Parser.parse_fragment "<probe><leaf/></probe>");
        ignore (Label_sync.flush sync);
        snap := Read_snapshot.refresh !snap;
        check_same
          (Printf.sprintf "round %d: probe//leaf" round)
          (Query.label_descendants pager store ~anc:"probe" ~desc:"leaf")
          (Par_query.descendants pool !snap ~anc:"probe" ~desc:"leaf");
        match busy_tags !snap with
        | anc :: desc :: _ ->
          check_same
            (Printf.sprintf "round %d: %s//%s" round anc desc)
            (Query.label_descendants pager store ~anc ~desc)
            (Par_query.descendants pool !snap ~anc ~desc)
        | _ -> ()
      done)

(* {1 Satellite: adaptive claim halving} *)

(* One hot tail: chunks past the midpoint each burn ~3ms while the
   head chunks are free, so some claimed span's wall time dominates
   the job's running mean and the claim size must halve at least
   once. *)
let adaptive_claims_rebalance () =
  let spin_ms ms =
    let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
    while Unix.gettimeofday () < deadline do
      ignore (Sys.opaque_identity 0)
    done
  in
  Pool.with_pool ~size:2 (fun pool ->
      Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:64 (fun lo _ ->
          if lo >= 32 then spin_ms 3);
      let s = Pool.stats pool in
      Alcotest.(check bool)
        (Printf.sprintf "claim halvings recorded (got %d)"
           s.Pool.claim_adaptations)
        true
        (s.Pool.claim_adaptations >= 1))

(* {1 Satellite: staleness payload} *)

let stale_payload_carries_stamps () =
  let doc =
    Parser.parse_string "<a><probe><leaf/></probe><probe/></a>"
  in
  let ldoc = Labeled_doc.of_document doc in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let snap = Read_snapshot.of_store pager store ldoc in
  let root = Option.get doc.Dom.root in
  Labeled_doc.insert_subtree ldoc ~parent:root ~index:0
    (Parser.parse_fragment "<probe/>");
  match Read_snapshot.ensure_fresh snap with
  | () -> Alcotest.fail "stale snapshot accepted"
  | exception Read_snapshot.Stale st ->
    (* The document mutated but no flush ran: the version stamp moved,
       the index generation did not. *)
    Alcotest.(check bool) "live version advanced" true
      (st.Read_snapshot.stale_live_version
       > st.Read_snapshot.stale_snap_version);
    Alcotest.(check int) "index generation unchanged"
      st.Read_snapshot.stale_snap_generation
      st.Read_snapshot.stale_live_generation;
    let rendered = Read_snapshot.staleness_to_string st in
    Alcotest.(check bool)
      (Printf.sprintf "rendering names both stamps: %s" rendered)
      true
      (String.length rendered > 0)

(* {1 The join kernel: windows compose}

   Every plan is the one kernel over windows of its driving input, so
   the kernel must compose: on random documents, the concatenated
   outputs of any partition of [0, len) — 1-row windows included — equal
   the whole-range output, for both axes and for INL, and the answers
   equal Dom_eval's, which knows nothing of labels. *)

module Column = Ltree_core.Column
module Prng = Ltree_workload.Prng

let col_list c = List.init (Column.length c) (Column.get_checked c)

(* A random partition of [0, len) into windows, often of one row. *)
let partition prng len =
  let rec go lo acc =
    if lo >= len then List.rev acc
    else
      let w = if Prng.bool prng then 1 else 1 + Prng.int prng len in
      go (min len (lo + w)) ((lo, min len (lo + w)) :: acc)
  in
  go 0 []

(* Dom_eval's sorted ids for [//a<sep>b...], [#text] as [text()]. *)
let dom_ids doc steps =
  let test t = if String.equal t "#text" then "text()" else t in
  let path = String.concat "" (List.map (fun (sep, t) -> sep ^ test t) steps) in
  List.sort Int.compare
    (List.map Dom.id
       (Ltree_xpath.Dom_eval.eval doc (Ltree_xpath.Xpath_parser.parse path)))

let kernel_windows_compose () =
  let prng = Prng.create 11 in
  let counters = Counters.create () in
  for seed = 1 to 24 do
    let doc, ldoc, pager, store =
      setup_generated ~seed ~nodes:(50 + Prng.int prng 400)
    in
    let snap = Read_snapshot.of_store pager store ldoc in
    let tags =
      match busy_tags snap with
      | a :: b :: c :: d :: _ -> [ a; b; c; d ]
      | ts -> ts
    in
    let pair anc desc =
      let sa = Read_snapshot.slice snap anc
      and sd = Read_snapshot.slice snap desc in
      let a = Read_snapshot.entry_of_slice sa
      and d = Read_snapshot.entry_of_slice sd in
      let what = Printf.sprintf "seed %d %s//%s" seed anc desc in
      (* One window's matched positions (the same with or without
         ancestors), their ancestors, and the Dom ids of the child-axis
         matches. *)
      let run lo hi =
        let ws = Label_index.new_workspace () in
        Query.semi_join counters ~with_anc:false a d ~lo ~hi ws;
        let bare = col_list ws.Label_index.w_out in
        Query.semi_join counters ~with_anc:true a d ~lo ~hi ws;
        let out = col_list ws.Label_index.w_out
        and up = col_list ws.Label_index.w_anc in
        check_same (what ^ ": positions without ancestors") out bare;
        Query.child_ids ~row:Fun.id
          ~level:(Column.get sd.Read_snapshot.s_levels)
          ~id:(Column.get sd.Read_snapshot.s_ids)
          ~alevel:(Column.get sa.Read_snapshot.s_levels)
          ws;
        (out, up, col_list ws.Label_index.w_out)
      in
      let out, up, children = run 0 d.Label_index.len in
      let parts =
        List.map (fun (lo, hi) -> run lo hi) (partition prng d.Label_index.len)
      in
      let cat f = List.concat_map f parts in
      check_same (what ^ ": windows = whole (positions)") out
        (cat (fun (o, _, _) -> o));
      check_same (what ^ ": windows = whole (ancestors)") up
        (cat (fun (_, u, _) -> u));
      check_same (what ^ ": windows = whole (children)") children
        (cat (fun (_, _, c) -> c));
      let ids ps =
        List.sort_uniq Int.compare
          (List.map (Column.get sd.Read_snapshot.s_ids) ps)
      in
      let want = dom_ids doc [ ("//", anc); ("//", desc) ] in
      check_same (what ^ ": descendants = Dom_eval") want (ids out);
      check_same (what ^ ": children = Dom_eval")
        (dom_ids doc [ ("//", anc); ("/", desc) ])
        (List.sort_uniq Int.compare children);
      let inl lo hi =
        let out = Column.create () in
        Query.inl counters a d ~lo ~hi out;
        col_list out
      in
      let inl_whole = inl 0 a.Label_index.len in
      check_same (what ^ ": INL windows = whole") inl_whole
        (List.concat_map
           (fun (lo, hi) -> inl lo hi)
           (partition prng a.Label_index.len));
      check_same (what ^ ": INL = Dom_eval") want (ids inl_whole)
    in
    List.iter (fun anc -> List.iter (pair anc) tags) tags
  done

let suite =
  ( "exec",
    [
      case "parallel_for covers the range exactly once" `Quick
        covers_range_once;
      case "map preserves order" `Quick map_preserves_order;
      case "body exceptions reach the caller" `Quick exceptions_propagate;
      case "re-entrant parallel_for runs inline" `Quick reentrant_runs_inline;
      case "stats account for chunks and workers" `Quick
        stats_account_for_work;
      case "parallel plans == serial plans (seeds x sizes 1/2/4)" `Slow
        parallel_matches_serial;
      case "kernel windows compose, both axes and INL = Dom_eval" `Quick
        kernel_windows_compose;
      case "stale snapshots refuse, refresh rebuilds" `Quick
        staleness_detected;
      case "2-domain mutate/flush/refresh stress" `Slow mutate_refresh_stress;
      case "skewed chunk halves the claim size" `Quick
        adaptive_claims_rebalance;
      case "Stale carries version + generation stamps" `Quick
        stale_payload_carries_stamps;
    ] )
