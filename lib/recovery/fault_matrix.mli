(** The fault-matrix engine: one sweep shared by every crash matrix.

    A matrix checks recovery against a bit-exact oracle — labels and a
    content checksum after every prefix of a seeded script, exact
    because L-Tree labels are deterministic (paper §4.2: the same
    operations give the same labels).  A {e topology} (the single store
    {!Crash_matrix}, the primary/replica pair [Repl_matrix], the K-shard
    store [Shard_matrix]) supplies what is really its own: how to build
    and drive the workload, which sites it can damage and how many write
    points or channel sends each has, how to recover or promote, and its
    own bound checks.  This module owns the rest: the config, the script
    and oracle, the "verify a store against oracle prefix [k]" check, the
    cell-coordinate grammar, and the sweep itself (enumerate, validate
    [--only], fan out over the pool, count progress and failures, note
    recorder events, inject a failure on request). *)

type config = {
  seed : int;
  ops : int;  (** script length *)
  doc_nodes : int;  (** target size of the base document *)
  group_commit : int;  (** records batched per fsync, every store *)
  checkpoint_every : int;  (** ops between snapshot rotations *)
}

val default_config : config
(** [{seed = 42; ops = 200; doc_nodes = 120; group_commit = 4;
    checkpoint_every = 32}] *)

(** {1 The seeded workload} *)

(** [base_document config] is the seeded document every topology starts
    from. *)
val base_document : config -> Ltree_xml.Dom.document

(** [base_ldoc config] labels a fresh {!base_document}. *)
val base_ldoc : config -> Ltree_doc.Labeled_doc.t

(** [generate_script config] is the seeded operation list; every entry's
    anchor is valid at its position. *)
val generate_script : config -> Ltree_doc.Journal.entry list

(** {1 The prefix oracle} *)

type oracle = {
  labels : int array array;
      (** [labels.(k)]: every slot's label after the [k]-op prefix *)
  crcs : int array;  (** serialized-content CRC-32 per prefix *)
}

(** [observe_labels ldoc] is every slot's label in document order. *)
val observe_labels : Ltree_doc.Labeled_doc.t -> int array

val labels_equal : int array -> int array -> bool

(** [build_oracle ?each ldoc entries] replays [entries] over [ldoc]
    (mutating it) and records the oracle after every prefix, calling
    [each k ldoc] once the [k]-op prefix is recorded. *)
val build_oracle :
  ?each:(int -> Ltree_doc.Labeled_doc.t -> unit) ->
  Ltree_doc.Labeled_doc.t ->
  Ltree_doc.Journal.entry list ->
  oracle

(** [register_invariants reg ~io ~dir ~expected_labels t] registers the
    three durability invariants over a live store:
    [recovery.journal-checksum-valid] (the on-disk journal scans clean),
    [recovery.snapshot-loadable] (the current generation loads), and
    [recovery.store-matches-oracle-prefix] (the document's labels equal
    [expected_labels ()]). *)
val register_invariants :
  Ltree_analysis.Invariant.registry ->
  io:Fault.io ->
  dir:string ->
  expected_labels:(unit -> int array) ->
  Durable_doc.t ->
  unit

(** [verify_store ~what ~io ~dir oracle ~prefix t] checks a surviving
    store against oracle prefix [prefix]: its sequence number, labels
    and content CRC, the three {!register_invariants} checks and
    [Labeled_doc.check], all at [Deep].  Failures are prefixed with
    [what]; the empty list means the store verified. *)
val verify_store :
  what:string ->
  io:Fault.io ->
  dir:string ->
  oracle ->
  prefix:int ->
  Durable_doc.t ->
  string list

(** {1 Recovering one crashed store} *)

type recovery =
  | Recovered of {
      durable_seq : int;
      attempted : int;  (** ops started before the crash *)
      synced : int;  (** last known-durable seq before the crash *)
      replayed : int;
      dropped : int;
      fault_kinds : string list;  (** damage recovery detected *)
    }
  | Unrecoverable of { fault_kinds : string list }

(** The crash-time bounds on the durable prefix, kept up to date by the
    topology's driver: at any instant the durable sequence number lies
    in [[synced, attempted]]. *)
type bounds = { mutable attempted : int; mutable synced : int }

(** [recover_crashed config ~what ~dir ~sim ~crashed ~point ~init_points
    b ?check oracle] recovers the store in [dir] from the files [sim]
    left behind and verifies it: the durable prefix lies in [b], the
    store passes {!verify_store} at that prefix and [check io prefix t]
    (the topology's extras over the recovered store, run only when the
    prefix lies inside the script) reports nothing.  Total loss is
    accepted only when nothing was applied and [point <= init_points].
    A run that did not crash ([crashed = false]) is itself a failure. *)
val recover_crashed :
  config ->
  what:string ->
  dir:string ->
  sim:Fault.sim ->
  crashed:bool ->
  point:int ->
  init_points:int ->
  bounds ->
  ?check:(Fault.io -> int -> Durable_doc.t -> string list) ->
  oracle ->
  recovery * string list

(** {1 Cell coordinates}

    Every cell is named [<prefix><unit><n>/<mode>]: the site's prefix
    ([""] for the single store, ["primary:"], ["S1/"]), its unit letter
    ([P] for a write point, [C] for a channel send), the 1-based point
    and the damage mode — e.g. ["P37/torn"], ["channel:C9/flip"],
    ["S1/P37/torn"].  A topology may add probe cells named verbatim
    (["probe:divergence"]). *)

type 'site grammar = {
  sites : 'site list;  (** every site, in sweep order *)
  prefix : 'site -> string;  (** unique per site *)
  unit : 'site -> char;
  probes : string list;
}

type 'site id = At of 'site * int * Fault.mode | Probe of string

val cell_name : 'site grammar -> 'site id -> string

(** [parse_cell g s] inverts {!cell_name}: [Some id] only when
    [cell_name g id] is exactly [s] for a point [>= 1]. *)
val parse_cell : 'site grammar -> string -> 'site id option

(** {1 The sweep} *)

(** What one uninjected run learned about a site. *)
type extent = {
  points : int;  (** write points (or channel sends) at the site *)
  init_points : int;  (** of those, consumed by initialization *)
}

type ('site, 'o) cell = {
  id : 'site id;
  name : string;  (** [cell_name] of [id] *)
  outcome : 'o;
  failures : string list;  (** verification failures — empty means pass *)
}

type ('site, 'o) summary = {
  config : config;
  extents : ('site * extent) list;  (** per site, in sweep order *)
  only : 'site id option;  (** the single-cell filter, if any *)
  cells : ('site, 'o) cell list;
      (** mode-major, then site, then point; probes last *)
  failed_cells : int;
}

(** [ok s]: every cell verified. *)
val ok : ('site, 'o) summary -> bool

(** Raised by {!sweep} when [only] names a cell outside the profiled
    matrix — a range known only after the profile pass.  The message
    names the cell and the site's extent. *)
exception Cell_out_of_range of string

(** [sweep ?pool ?progress ?only ?inject ~name g config extents eval]
    runs [eval] once per cell: for every {!Fault.all_modes} mode, every
    site of [extents] and every point [1..points] of it, then every
    probe of [g] — or only the cell [only].  Cells fan out across
    [pool] when given, with the same cells in the same order as a
    serial sweep.  [progress] is called after each cell, serialized
    under a mutex, with a monotone [done_cells].  [inject] forces the
    named cell to report one synthetic verification failure,
    indistinguishable from a real one downstream — the hook behind
    [--inject-cell-failure].  Each cell notes start/failure events
    (kind ["cell"], name = its coordinate) into {!Ltree_obs.Recorder}
    when recording is on.  Raises [Invalid_argument] (prefixed [name])
    when [config.ops < 1], and {!Cell_out_of_range} when [only] lies
    outside [extents]. *)
val sweep :
  ?pool:Ltree_exec.Pool.t ->
  ?progress:(done_cells:int -> total:int -> unit) ->
  ?only:'site id ->
  ?inject:'site id ->
  name:string ->
  'site grammar ->
  config ->
  ('site * extent) list ->
  ('site id -> 'o * string list) ->
  ('site, 'o) summary
