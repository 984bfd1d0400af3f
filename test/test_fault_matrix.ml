(* The fault-matrix engine across its three topologies: a pool sweep
   gives the same cells in the same order as a serial one, [--only]
   replays a swept cell exactly, every enumerated cell name parses back
   to its cell, and malformed names are rejected. *)

module FM = Ltree_recovery.Fault_matrix
module Fault = Ltree_recovery.Fault
module Crash_matrix = Ltree_recovery.Crash_matrix
module Repl_matrix = Ltree_replication.Repl_matrix
module Shard_matrix = Ltree_shard.Shard_matrix
module Pool = Ltree_exec.Pool

let case name speed f = Alcotest.test_case name speed f

let config seed ops doc_nodes group_commit checkpoint_every =
  { FM.seed; ops; doc_nodes; group_commit; checkpoint_every }

let store_config = config 7 25 40 3 8
let replica_config = config 7 12 30 2 6
let shard_config = config 42 12 40 4 6

let same_cell what (a : (_, _) FM.cell) (b : (_, _) FM.cell) =
  Alcotest.(check string) (what ^ ": name") a.FM.name b.FM.name;
  Alcotest.(check bool) (what ^ ": id " ^ a.FM.name) true (a.FM.id = b.FM.id);
  Alcotest.(check bool)
    (what ^ ": outcome " ^ a.FM.name)
    true (a.FM.outcome = b.FM.outcome);
  Alcotest.(check (list string))
    (what ^ ": failures " ^ a.FM.name)
    a.FM.failures b.FM.failures

(* [run pool only] sweeps one topology at a small config. *)
let check_topology g run =
  let serial = run None None in
  let pooled = Pool.with_pool ~size:2 (fun pool -> run (Some pool) None) in
  Alcotest.(check int) "no failed cells" 0 serial.FM.failed_cells;
  let points =
    List.fold_left (fun acc (_, e) -> acc + e.FM.points) 0 serial.FM.extents
  in
  Alcotest.(check int) "every site x point x mode, plus the probes"
    ((List.length Fault.all_modes * points) + List.length g.FM.probes)
    (List.length serial.FM.cells);
  Alcotest.(check int) "pool sweep: same cell count"
    (List.length serial.FM.cells)
    (List.length pooled.FM.cells);
  List.iter2 (same_cell "pool sweep") serial.FM.cells pooled.FM.cells;
  Alcotest.(check int) "pool sweep: same failed count" serial.FM.failed_cells
    pooled.FM.failed_cells;
  List.iter
    (fun (c : (_, _) FM.cell) ->
      match FM.parse_cell g c.FM.name with
      | Some id when id = c.FM.id -> ()
      | Some _ -> Alcotest.failf "%s parses to another cell" c.FM.name
      | None -> Alcotest.failf "%s does not parse" c.FM.name)
    serial.FM.cells;
  (* [--only] replays a cell from the middle of the sweep exactly. *)
  let mid = List.nth serial.FM.cells (List.length serial.FM.cells / 2) in
  match (run None (Some mid.FM.id)).FM.cells with
  | [ replayed ] -> same_cell "--only replay" mid replayed
  | cells -> Alcotest.failf "--only swept %d cells" (List.length cells)

let store_sweep () =
  check_topology Crash_matrix.grammar (fun pool only ->
      Crash_matrix.run ?pool ?only store_config)

let replica_sweep () =
  check_topology Repl_matrix.grammar (fun pool only ->
      Repl_matrix.run ?pool ?only replica_config)

let shard_sweep () =
  check_topology (Shard_matrix.grammar ~shards:2) (fun pool only ->
      Shard_matrix.run ?pool ?only ~shards:2 shard_config)

let check_names g ~good ~bad =
  List.iter
    (fun s ->
      match FM.parse_cell g s with
      | Some id ->
        Alcotest.(check string) "name round-trips" s (FM.cell_name g id)
      | None -> Alcotest.failf "failed to parse %S" s)
    good;
  List.iter
    (fun s ->
      match FM.parse_cell g s with
      | Some _ -> Alcotest.failf "parsed malformed %S" s
      | None -> ())
    bad

(* The replica and shard grammars are checked in their own suites. *)
let cell_names () =
  check_names Crash_matrix.grammar
    ~good:[ "P1/clean"; "P37/torn"; "P9/flip" ]
    ~bad:
      [ ""; "P37"; "P37torn"; "P0/torn"; "P-1/torn"; "P+3/torn"; "P03/torn";
        "P/torn"; "P3/bogus"; "C3/torn"; "primary:P3/torn"; "S1/P3/torn" ]

(* A cell past the profiled matrix is a typed error from the engine, and
   a usage error (exit 2, no uncaught exception) from every CLI that
   takes [--only]. *)
let only_out_of_range () =
  let raises what g name run =
    match run (Option.get (FM.parse_cell g name)) with
    | (_ : (_, _) FM.summary) -> Alcotest.failf "%s: swept %s" what name
    | exception FM.Cell_out_of_range _ -> ()
  in
  raises "store" Crash_matrix.grammar "P9999/torn" (fun only ->
      Crash_matrix.run ~only store_config);
  raises "shard" (Shard_matrix.grammar ~shards:2) "S1/P9999/torn"
    (fun only -> Shard_matrix.run ~only ~shards:2 shard_config);
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/ltree_cli.exe"
  in
  List.iter
    (fun args ->
      Alcotest.(check int) ("ltree " ^ args) 2
        (Sys.command
           (Filename.quote cli ^ " " ^ args
          ^ " --ops 3 --nodes 20 > /dev/null 2>&1")))
    [ "crash-matrix --only P999/torn";
      "crash-matrix --replica --only primary:P999/torn";
      "shard-matrix --shards 2 --only S1/P9999/torn" ]

let suite =
  ( "fault_matrix",
    [ case "store: pool sweep equals serial" `Quick store_sweep;
      case "replica: pool sweep equals serial" `Quick replica_sweep;
      case "shard: pool sweep equals serial" `Quick shard_sweep;
      case "store cell names parse back" `Quick cell_names;
      case "--only past the matrix is a usage error" `Quick only_out_of_range ] )
