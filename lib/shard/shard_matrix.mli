(** The K-shard topology of the {!Ltree_recovery.Fault_matrix} engine:
    run the whole sharded stack ({!Sharded_doc}), kill exactly {e one}
    shard's disk at every one of its write points in every damage mode,
    recover that shard {e alone} from its surviving files, and verify
    the whole document — the recovered shard against its local oracle
    at a durable prefix within [[synced, attempted]], every sibling
    shard at its full applied prefix, and the router twin at the global
    prefix of completed operations.  The global script is the engine's
    (global anchors route through the sharded store unchanged);
    per-shard local scripts and write-point counts are learned from one
    clean profile run.  Cells are named [S<shard>/P<point>/<mode>],
    e.g. ["S1/P37/torn"]. *)

(** [{seed = 42; ops = 120; doc_nodes = 100; group_commit = 4;
    checkpoint_every = 24}] — checkpoints rotate every shard. *)
val default_config : Ltree_recovery.Fault_matrix.config

(** [3] *)
val default_shards : int

(** The sites are the shard numbers [0 .. shards - 1]. *)
val grammar : shards:int -> int Ltree_recovery.Fault_matrix.grammar

type outcome = Ltree_recovery.Fault_matrix.recovery
type summary = (int, outcome) Ltree_recovery.Fault_matrix.summary

(** [run ?pool ?progress ?only ~shards config] sweeps shard x point x
    mode through {!Ltree_recovery.Fault_matrix.sweep}.  Raises
    [Invalid_argument] when [shards < 1]. *)
val run :
  ?pool:Ltree_exec.Pool.t ->
  ?progress:(done_cells:int -> total:int -> unit) ->
  ?only:int Ltree_recovery.Fault_matrix.id ->
  shards:int ->
  Ltree_recovery.Fault_matrix.config ->
  summary
