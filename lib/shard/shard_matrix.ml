module FM = Ltree_recovery.Fault_matrix
module Fault = Ltree_recovery.Fault
module Durable_doc = Ltree_recovery.Durable_doc

(* Monomorphic comparison prelude (lint rule R2). *)
let ( = ) : int -> int -> bool = Stdlib.( = )
let ( <> ) : int -> int -> bool = Stdlib.( <> )
let ( < ) : int -> int -> bool = Stdlib.( < )

(* The shard-level topology: run the whole sharded stack, kill exactly
   {e one} shard's disk at every one of its write points in every
   damage mode, recover that shard {e alone} from its surviving files,
   and verify the whole document:

   - the recovered shard verifies against its local oracle at the
     durable prefix, which lies in [[synced_j, attempted_j]];
   - every {e other} shard still sits at its full applied local prefix
     (a crash is contained: one shard's disk damage never touches a
     sibling's store);
   - the router twin sits exactly at the global prefix of operations
     whose owning-shard commit completed — so recovered shard + live
     siblings + router compose back into the global oracle's document.

   The global script is the engine's (global anchors route through the
   sharded store unchanged); per-shard local scripts and write points
   are learned from one clean profile run. *)

let default_config =
  { FM.seed = 42; ops = 120; doc_nodes = 100; group_commit = 4;
    checkpoint_every = 24 }

let default_shards = 3
let store_dir = "store"

let grammar ~shards =
  { FM.sites = List.init shards Fun.id;
    prefix = Printf.sprintf "S%d/";
    unit = (fun _ -> 'P');
    probes = [] }

type outcome = FM.recovery
type summary = (int, outcome) FM.summary

let build_sharded ?sim_for ~shards (config : FM.config) =
  Sharded_doc.create ~group_commit:config.group_commit ?sim_for ~shards
    (FM.base_document config)

let drive ?on_op ?on_checkpoint (config : FM.config) script sdoc =
  List.iteri
    (fun i entry ->
      Sharded_doc.apply sdoc entry;
      (match on_op with None -> () | Some f -> f (i + 1));
      if (i + 1) mod config.checkpoint_every = 0 then begin
        Sharded_doc.checkpoint sdoc;
        match on_checkpoint with None -> () | Some f -> f ()
      end)
    script;
  Sharded_doc.sync sdoc

(* {1 Profile pass}

   One clean run of the whole sharded workload: learns each shard's
   local script (via the local-entry hook), each shard's write-point
   count and how many points its initialization consumed. *)

let profile ~shards config script =
  let sdoc = build_sharded ~shards config in
  let init_points =
    Array.init shards (fun j -> Fault.points (Sharded_doc.shard_sim sdoc j))
  in
  let locals = Array.make shards [] in
  Sharded_doc.set_local_entry_hook sdoc
    (Some (fun sid e -> locals.(sid) <- e :: locals.(sid)));
  drive config script sdoc;
  ( Array.map List.rev locals,
    Array.init shards (fun j ->
        ( j,
          { FM.points = Fault.points (Sharded_doc.shard_sim sdoc j);
            init_points = init_points.(j) } )) )

(* {1 One cell} *)

let eval_cell ~shards config script ~extents ~oracles ~global j point mode =
  let plan = { Fault.crash_point = point; mode; seed = config.FM.seed } in
  let armed = Fault.create_sim ~plan () in
  let sim_for sid = if sid = j then armed else Fault.create_sim () in
  let b = { FM.attempted = 0; synced = 0 } in
  let applied_global = ref 0 in
  let per_shard_applied = Array.make shards 0 in
  let sdoc_ref = ref None in
  let crashed =
    match
      let sdoc = build_sharded ~sim_for ~shards config in
      sdoc_ref := Some sdoc;
      Sharded_doc.set_local_entry_hook sdoc
        (Some
           (fun sid _e ->
             per_shard_applied.(sid) <- per_shard_applied.(sid) + 1;
             if sid = j then b.attempted <- b.attempted + 1));
      let durable = Sharded_doc.shard_durable sdoc j in
      drive config script sdoc
        ~on_op:(fun n ->
          applied_global := n;
          b.synced <-
            Durable_doc.last_seq durable - Durable_doc.pending durable)
        ~on_checkpoint:(fun () -> b.synced <- Durable_doc.last_seq durable)
    with
    | () -> false
    | exception Fault.Crash _ -> true
  in
  let outcome, failures =
    FM.recover_crashed config ~what:(Printf.sprintf "shard %d" j)
      ~dir:store_dir ~sim:armed ~crashed ~point
      ~init_points:(snd extents.(j)).FM.init_points b oracles.(j)
  in
  (* Containment: the un-armed shards and the router twin must sit at
     exactly the prefixes that completed before the crash — recovered
     shard + live siblings + router re-compose the global oracle's
     document. *)
  let at_prefix ldoc (oracle : FM.oracle) k =
    FM.labels_equal (FM.observe_labels ldoc) oracle.FM.labels.(k)
  in
  let contained =
    match !sdoc_ref with
    | None ->
      if !applied_global <> 0 then
        [ Printf.sprintf "no sharded store, yet %d global ops applied"
            !applied_global ]
      else []
    | Some sdoc ->
      List.filter_map
        (fun q ->
          let k = per_shard_applied.(q) in
          if q = j || at_prefix (Sharded_doc.shard_ldoc sdoc q) oracles.(q) k
          then None
          else Some (Printf.sprintf "sibling shard %d not at its applied \
                                     prefix %d" q k))
        (List.init shards Fun.id)
      @
      if at_prefix (Sharded_doc.router sdoc) global !applied_global then []
      else [ Printf.sprintf "router twin not at global prefix %d"
               !applied_global ]
  in
  (outcome, failures @ contained)

(* {1 The topology} *)

let run ?pool ?progress ?only ~shards config =
  if shards < 1 then invalid_arg "Shard_matrix.run: shards must be >= 1";
  let script = FM.generate_script config in
  let locals, extents = profile ~shards config script in
  (* Per-shard oracles replay each local script over a pristine copy of
     that shard's initial document; the global one covers the router. *)
  let pristine = build_sharded ~shards config in
  let oracles =
    Array.mapi
      (fun j local -> FM.build_oracle (Sharded_doc.shard_ldoc pristine j) local)
      locals
  in
  let global = FM.build_oracle (FM.base_ldoc config) script in
  FM.sweep ?pool ?progress ?only ~name:"Shard_matrix.run" (grammar ~shards)
    config (Array.to_list extents) (fun id ->
      match id with
      | FM.At (j, point, mode) ->
        eval_cell ~shards config script ~extents ~oracles ~global j point mode
      | FM.Probe _ -> invalid_arg "Shard_matrix.run: shards have no probes")
