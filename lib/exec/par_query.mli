(** Structural-join plans over a frozen {!Read_snapshot}.

    Every plan runs the one kernel of {!Ltree_relstore.Query} over
    windows of its output-driving input: pool chunks for the parallel
    plans below, the snapshot's whole range for {!whole_descendants}.  Window
    outputs are concatenated in window order, so results are
    element-for-element identical to the serial plans in
    {!Ltree_relstore.Query} for every pool size (including 1).  Workers
    touch only the immutable snapshot and per-window scratch.

    Every plan but {!whole_descendants} calls
    {!Read_snapshot.ensure_fresh} first and therefore
    raises {!Read_snapshot.Stale} rather than answer from outdated
    arrays.  Comparisons are aggregated into [?counters] (when given)
    and into the shared [query_join_comparisons] histogram. *)

(** [descendants pool snap ~anc ~desc] is the parallel [anc//desc]
    plan; sorted Dom ids, equal to
    [Query.label_descendants]. *)
val descendants :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> Read_snapshot.t -> anc:string -> desc:string -> int list

(** Parallel [parent/child]; equal to [Query.label_children]. *)
val children :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> Read_snapshot.t -> parent:string -> child:string -> int list

(** Parallel index-nested-loop [anc//desc], windowed by ancestors;
    equal to [Query.label_descendants_inl]. *)
val descendants_inl :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> Read_snapshot.t -> anc:string -> desc:string -> int list

(** Parallel multi-step descendant path [t1//t2//…//tk]; equal to
    [Query.label_path]. *)
val path :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> Read_snapshot.t -> string list -> int list

(** [whole_descendants snap ~anc ~desc] is [anc//desc] run serially
    over [snap]'s whole range — one task of a batch — returning its
    sorted Dom ids with the comparisons it made (charged nowhere: the
    caller aggregates them).  It opens no span and does not check
    freshness: the caller calls {!Read_snapshot.ensure_fresh} once for
    the batch. *)
val whole_descendants :
  Read_snapshot.t -> anc:string -> desc:string -> int list * int

(** [descendants_batch pool snap queries] fans whole queries across the
    pool (one {!whole_descendants} task per query) and returns
    per-query sorted Dom ids, index-aligned with [queries]. *)
val descendants_batch :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> Read_snapshot.t -> (string * string) array -> int list array
