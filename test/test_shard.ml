(* Subtree sharding: routing, fan-out plan determinism, write routing
   with cut maintenance, live rebalance, and the shard-level crash
   matrix.  The load-bearing property everywhere: sharded plans are
   byte-identical to the same plans over the router's single unsharded
   store — at every K, every pool size, through rebalances, and under
   label-window restriction.  See DESIGN.md §13. *)

module Dom = Ltree_xml.Dom
module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal
module Xml_gen = Ltree_workload.Xml_gen
module Pool = Ltree_exec.Pool
module Fault = Ltree_recovery.Fault
module Sharded_doc = Ltree_shard.Sharded_doc
module Shard_matrix = Ltree_shard.Shard_matrix
module Fault_matrix = Ltree_recovery.Fault_matrix

let case = Alcotest.test_case

let make_doc ?(nodes = 120) seed =
  Xml_gen.generate ~seed (Xml_gen.default_profile ~target_nodes:nodes ())

(* A document guaranteed to have many top-level subtrees, so every
   shard of a small K owns a non-empty contiguous run; shapes vary
   deterministically with [seed]. *)
let wide_doc ?(subtrees = 9) seed =
  let root = Dom.element "site" in
  for i = 0 to subtrees - 1 do
    let sub = Dom.element [| "item"; "person"; "auction" |].(i mod 3) in
    Dom.append_child root sub;
    for j = 0 to 1 + ((seed + i) mod 4) do
      let inner = Dom.element [| "name"; "bid"; "city" |].(j mod 3) in
      Dom.append_child inner
        (Dom.text (Printf.sprintf "t%d-%d-%d" seed i j));
      if j mod 2 = 0 then begin
        let deep = Dom.element "item" in
        Dom.append_child deep (Dom.element "name");
        Dom.append_child inner deep
      end;
      Dom.append_child sub inner
    done
  done;
  Dom.document root

let root_of ldoc =
  match (Labeled_doc.document ldoc).Dom.root with
  | Some r -> r
  | None -> assert false

(* A few distinct element names actually present in the document, so
   plan comparisons join non-empty row sets. *)
let some_tags sd =
  let root = root_of (Sharded_doc.router sd) in
  List.filteri
    (fun i _ -> i < 5)
    (List.sort_uniq String.compare
       (List.filter_map
          (fun n -> if Dom.is_element n then Some (Dom.name n) else None)
          (root :: Dom.descendants root)))

let check_all_plans_agree ?within name sd pool =
  let tags = some_tags sd in
  let check what got want =
    Alcotest.(check (list int))
      (Printf.sprintf "%s: %s" name what)
      want got
  in
  List.iter
    (fun anc ->
      List.iter
        (fun desc ->
          check
            (Printf.sprintf "%s//%s" anc desc)
            (Sharded_doc.descendants ?within sd pool ~anc ~desc)
            (Sharded_doc.unsharded_descendants ?within sd pool ~anc ~desc);
          check
            (Printf.sprintf "%s/%s" anc desc)
            (Sharded_doc.children ?within sd pool ~parent:anc ~child:desc)
            (Sharded_doc.unsharded_children ?within sd pool ~parent:anc
               ~child:desc);
          check
            (Printf.sprintf "inl %s//%s" anc desc)
            (Sharded_doc.descendants_inl ?within sd pool ~anc ~desc)
            (Sharded_doc.unsharded_descendants_inl ?within sd pool ~anc
               ~desc))
        tags)
    tags;
  (match tags with
  | a :: b :: c :: _ ->
    check
      (Printf.sprintf "%s//%s//%s" a b c)
      (Sharded_doc.path ?within sd pool [ a; b; c ])
      (Sharded_doc.unsharded_path ?within sd pool [ a; b; c ])
  | _ -> ());
  let batch =
    Array.of_list
      (List.concat_map (fun a -> List.map (fun d -> (a, d)) tags) tags)
  in
  let got = Sharded_doc.descendants_batch ?within sd pool batch in
  let want = Sharded_doc.unsharded_descendants_batch ?within sd pool batch in
  Array.iteri
    (fun i (anc, desc) ->
      check (Printf.sprintf "batch %s//%s" anc desc) got.(i) want.(i))
    batch

(* {1 Routing} *)

(* Router-label interval of shard [p]: its owned top-level subtrees'
   label span. *)
let shard_interval sd p =
  let r = Sharded_doc.router sd in
  let cuts = Sharded_doc.cuts sd in
  let subs = Array.of_list (Dom.children (root_of r)) in
  let lab n = Labeled_doc.label r n in
  let lo = (lab subs.(cuts.(p))).Labeled_doc.start_pos in
  let hi = (lab subs.(cuts.(p + 1) - 1)).Labeled_doc.end_pos in
  (lo, hi)

let routing_boundaries () =
  let sd = Sharded_doc.create ~shards:3 (wide_doc 11) in
  let ivals = List.init 3 (shard_interval sd) in
  List.iteri
    (fun p (lo, hi) ->
      (* A window exactly equal to the shard's interval routes to that
         shard alone. *)
      Alcotest.(check (list int))
        (Printf.sprintf "window = shard %d interval" p)
        [ p ]
        (Sharded_doc.routed ~within:(lo, hi) sd);
      (* The boundary label alone stays inside one shard. *)
      Alcotest.(check (list int))
        (Printf.sprintf "shard %d's first label" p)
        [ p ]
        (Sharded_doc.routed ~within:(lo, lo) sd))
    ivals;
  (* A window straddling the 0/1 boundary by one label on each side
     routes to exactly both. *)
  let _, hi0 = List.nth ivals 0 and lo1, _ = List.nth ivals 1 in
  Alcotest.(check (list int))
    "straddling window" [ 0; 1 ]
    (Sharded_doc.routed ~within:(hi0, lo1) sd);
  (* The gap between an end label and the next start (if any) still
     belongs to no third shard. *)
  Alcotest.(check (list int))
    "full document" [ 0; 1; 2 ]
    (Sharded_doc.routed sd)

let windowed_plans_agree () =
  let sd = Sharded_doc.create ~shards:3 (wide_doc 12) in
  Pool.with_pool ~size:2 (fun pool ->
      let lo0, hi0 = shard_interval sd 0 in
      let lo1, hi1 = shard_interval sd 1 in
      check_all_plans_agree ~within:(lo0, hi0) "shard-0 window" sd pool;
      (* Exactly on the boundary: ends at shard 0's last label, starts
         at shard 1's first. *)
      check_all_plans_agree ~within:(hi0, lo1) "boundary window" sd pool;
      check_all_plans_agree ~within:(lo0 + 1, hi1 - 1) "offset window" sd
        pool)

(* {1 K = 1 and K = 3 agreement} *)

let k1_byte_identical () =
  let sd = Sharded_doc.create ~shards:1 (make_doc 13) in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          check_all_plans_agree
            (Printf.sprintf "K=1 pool=%d" size)
            sd pool))
    [ 1; 2 ]

let k3_agreement_after_writes () =
  let config =
    { Shard_matrix.default_config with Fault_matrix.ops = 60; doc_nodes = 80 }
  in
  let sd = Sharded_doc.create ~shards:3 (Fault_matrix.base_document config) in
  List.iteri
    (fun i entry ->
      Sharded_doc.apply sd entry;
      if (i + 1) mod 20 = 0 then Sharded_doc.checkpoint sd)
    (Fault_matrix.generate_script config);
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          check_all_plans_agree
            (Printf.sprintf "K=3 after writes pool=%d" size)
            sd pool))
    [ 1; 2; 4 ]

(* {1 Write routing} *)

let writes_route_to_owner () =
  let sd = Sharded_doc.create ~shards:3 (wide_doc 14) in
  let before = Array.map Fun.id (Sharded_doc.cuts sd) in
  let r = Sharded_doc.router sd in
  let subs = Array.of_list (Dom.children (root_of r)) in
  (* Insert a subtree under shard 1's first top-level subtree: only
     shard 1's journal advances. *)
  let target = subs.(before.(1)) in
  let anchor = (Labeled_doc.label r target).Labeled_doc.start_pos in
  let seq_before =
    Array.init 3 (fun j ->
        Ltree_recovery.Durable_doc.last_seq (Sharded_doc.shard_durable sd j))
  in
  Sharded_doc.apply sd
    (Journal.Insert { anchor; index = 0; xml = "<patch>p</patch>" });
  Array.iteri
    (fun j seq ->
      let now =
        Ltree_recovery.Durable_doc.last_seq (Sharded_doc.shard_durable sd j)
      in
      Alcotest.(check int)
        (Printf.sprintf "shard %d journal advance" j)
        (if j = 1 then seq + 1 else seq)
        now)
    seq_before;
  Alcotest.(check (option int))
    "owner lookup" (Some 1)
    (Sharded_doc.owner_of_anchor sd anchor);
  (* Deep insert does not move any cut. *)
  Alcotest.(check (list int))
    "cuts unchanged" (Array.to_list before)
    (Array.to_list (Sharded_doc.cuts sd));
  (* A root-level insert at the front shifts every later cut. *)
  let root_anchor =
    (Labeled_doc.label r (root_of r)).Labeled_doc.start_pos
  in
  Sharded_doc.apply sd
    (Journal.Insert { anchor = root_anchor; index = 0; xml = "<patch>q</patch>" });
  Alcotest.(check (list int))
    "front insert shifts cuts"
    [ before.(0); before.(1) + 1; before.(2) + 1; before.(3) + 1 ]
    (Array.to_list (Sharded_doc.cuts sd))

let empty_shard_skipped () =
  let sd = Sharded_doc.create ~shards:3 (wide_doc 15) in
  let r = Sharded_doc.router sd in
  let cuts = Sharded_doc.cuts sd in
  (* Delete every top-level subtree shard 1 owns. *)
  let owned () =
    let subs = Array.of_list (Dom.children (root_of r)) in
    let cuts = Sharded_doc.cuts sd in
    Array.to_list (Array.sub subs cuts.(1) (cuts.(2) - cuts.(1)))
  in
  Alcotest.(check bool) "shard 1 starts non-empty" true
    (cuts.(2) - cuts.(1) > 0);
  let rec drain () =
    match owned () with
    | [] -> ()
    | n :: _ ->
      Sharded_doc.apply sd
        (Journal.Delete
           { anchor = (Labeled_doc.label r n).Labeled_doc.start_pos });
      drain ()
  in
  drain ();
  let cuts = Sharded_doc.cuts sd in
  Alcotest.(check int) "shard 1 emptied" cuts.(1) cuts.(2);
  Alcotest.(check (list int))
    "routing skips the empty shard" [ 0; 2 ]
    (Sharded_doc.routed sd);
  Pool.with_pool ~size:2 (fun pool ->
      check_all_plans_agree "empty middle shard" sd pool)

(* {1 Rebalance} *)

let split_preserves_plans () =
  let sd = Sharded_doc.create ~shards:2 (wide_doc 16) in
  Pool.with_pool ~size:2 (fun pool ->
      let phases = ref [] in
      (* Queries issued from inside the split — between shipping the
         store, trimming both sides, and the routing commit — must
         still agree: the router twin and the old shard stay live until
         the final layout swap. *)
      Sharded_doc.split sd 0 ~on_phase:(fun phase ->
          phases := phase :: !phases;
          check_all_plans_agree
            (Printf.sprintf "during split (%s)" phase)
            sd pool);
      Alcotest.(check (list string))
        "phases seen" [ "ship"; "trim"; "commit" ]
        (List.rev !phases);
      Alcotest.(check int) "now three shards" 3 (Sharded_doc.nshards sd);
      Alcotest.(check int) "one rebalance" 1 (Sharded_doc.rebalances sd);
      check_all_plans_agree "after split" sd pool;
      (* The split shards still take writes. *)
      let r = Sharded_doc.router sd in
      let subs = Array.of_list (Dom.children (root_of r)) in
      let anchor =
        (Labeled_doc.label r subs.(0)).Labeled_doc.start_pos
      in
      Sharded_doc.apply sd
        (Journal.Insert { anchor; index = 0; xml = "<patch>s</patch>" });
      check_all_plans_agree "after post-split write" sd pool)

let maybe_rebalance_triggers () =
  let sd = Sharded_doc.create ~shards:2 (wide_doc 17) in
  (* With the threshold below any real imbalance, the denser shard must
     split; with a huge threshold, nothing happens. *)
  Alcotest.(check bool)
    "huge threshold: no split" false
    (Sharded_doc.maybe_rebalance ~threshold:1e9 sd);
  let split = Sharded_doc.maybe_rebalance ~threshold:0.1 sd in
  Alcotest.(check bool) "tiny threshold: split ran" true split;
  Alcotest.(check int) "shard count grew" 3 (Sharded_doc.nshards sd);
  Pool.with_pool ~size:2 (fun pool ->
      check_all_plans_agree "after maybe_rebalance" sd pool)

(* {1 Shard crash matrix} *)

let small_config =
  { Fault_matrix.seed = 42; ops = 12; doc_nodes = 40; group_commit = 4;
    checkpoint_every = 6 }

let matrix_smoke () =
  let s = Shard_matrix.run ~shards:2 small_config in
  Alcotest.(check bool) "matrix clean" true (Fault_matrix.ok s);
  Alcotest.(check int) "no failed cells" 0 s.Fault_matrix.failed_cells;
  Alcotest.(check int) "two shards swept" 2
    (List.length s.Fault_matrix.extents)

let matrix_only_cell () =
  let only = Fault_matrix.At (1, 7, Fault.Torn) in
  let s = Shard_matrix.run ~only ~shards:2 small_config in
  Alcotest.(check int) "one cell" 1 (List.length s.Fault_matrix.cells);
  Alcotest.(check bool) "cell green" true (Fault_matrix.ok s)

let parse_cell_roundtrip () =
  let g = Shard_matrix.grammar ~shards:3 in
  List.iter
    (fun s ->
      match Fault_matrix.parse_cell g s with
      | Some id ->
        Alcotest.(check string) "name round-trips" s
          (Fault_matrix.cell_name g id)
      | None -> Alcotest.failf "failed to parse %S" s)
    [ "S0/P1/clean"; "S1/P37/torn"; "S2/P9/flip" ];
  List.iter
    (fun s ->
      match Fault_matrix.parse_cell g s with
      | Some _ -> Alcotest.failf "parsed garbage %S" s
      | None -> ())
    [ ""; "P3/torn"; "S/P3/torn"; "Sx/P3/torn"; "S1/torn"; "S1/P0x/torn";
      "S1/P0/torn"; "S3/P1/torn"; "S1/P3/bogus"; "S1/P3torn"; "S1:P3/torn" ];
  Alcotest.(check bool) "shard sites follow the shard count" true
    (Option.is_some
       (Fault_matrix.parse_cell (Shard_matrix.grammar ~shards:4) "S3/P1/torn"))

let suite =
  ( "shard",
    [ case "routing hits exact shard boundaries" `Quick routing_boundaries;
      case "windowed plans agree across boundaries" `Quick
        windowed_plans_agree;
      case "K=1 plans byte-identical to unsharded" `Quick k1_byte_identical;
      case "K=3 plans agree after a write workload" `Quick
        k3_agreement_after_writes;
      case "writes route to the owning shard only" `Quick
        writes_route_to_owner;
      case "an emptied shard is skipped by routing" `Quick
        empty_shard_skipped;
      case "plans stay exact during and after a split" `Quick
        split_preserves_plans;
      case "maybe_rebalance splits only past threshold" `Quick
        maybe_rebalance_triggers;
      case "shard crash matrix sweeps clean" `Quick matrix_smoke;
      case "single-cell rerun matches the sweep" `Quick matrix_only_cell;
      case "cell names parse back" `Quick parse_cell_roundtrip ] )
