(** The two relational plans for the motivating query shape [a//b]
    (paper §1: "to answer descendant-axis '//' ... many self-joins are
    needed" vs. "exactly one self-join with label comparisons").

    Both return the Dom ids of matching [b] nodes, sorted; both charge
    row fetches to the shared pager, so [page_reads] are comparable. *)

(** [edge_descendants store ~anc ~desc] evaluates [anc//desc] by iterated
    parent-child self-joins (BFS from the [anc] rows through the
    parent-id index, fetching every intermediate row). *)
val edge_descendants :
  Shredder.edge_store -> anc:string -> desc:string -> int list

(** [label_descendants store ~anc ~desc] evaluates [anc//desc] with one
    structural join over the incremental per-tag label index
    ({!Label_index}): both inputs come back as sorted [(start, end,
    row id)] arrays — rebuilt on first access, merge-repaired after
    updates — and are joined by {!semi_join} (interval-containment
    comparisons counted on the pager's counters). *)
val label_descendants :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string -> int list

(** [label_descendants_hot pager store ~anc ~desc] is the same plan
    stripped to its zero-allocation spine: clean-entry lookup (falling
    back to repair only when the index is dirty), {!semi_join} over the
    index's preallocated workspace, and the matched rows' Dom ids
    sorted and deduplicated in place.  In steady state (clean
    index, warm workspace and buffer pool) a call allocates nothing on
    the minor heap — the claim [make analyze] (R9) checks statically
    and [exp_query] asserts dynamically.  The returned column is
    {e borrowed}: it is the index workspace's result buffer, valid only
    until the next query on the same store. *)
val label_descendants_hot :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string ->
  Ltree_core.Column.t

(** [label_descendants_baseline pager store ~anc ~desc] is the
    pre-index control plan: fetch and re-sort both tags' rows on every
    call (sort comparisons charged), then run the list-based stack
    join.  Kept for the old-vs-new comparison in [exp_query] and the
    agreement tests. *)
val label_descendants_baseline :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string -> int list

(** [label_descendants_inl pager store ~anc ~desc] evaluates the same
    query with the {e index-nested-loop} plan: for each [anc] row, probe
    the [desc] index entry by binary search and fetch only the rows
    whose start falls inside the ancestor's interval (XML intervals
    nest, so start containment implies full containment).  Cheaper than
    the merge when the anchors are few and selective, more expensive
    when they blanket the document — the crossover is experiment E8d.
    The probed entry is the same incremental index the merge plan uses:
    built lazily, repaired (not dropped) after {!Label_sync.flush}. *)
val label_descendants_inl :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string -> int list

(** [edge_children store ~parent ~child] and
    [label_children pager store ~parent ~child] evaluate the single-step
    [parent/child] under both layouts. *)
val edge_children :
  Shredder.edge_store -> parent:string -> child:string -> int list

val label_children :
  Pager.t -> Shredder.label_store -> parent:string -> child:string ->
  int list

(** [edge_path store tags] and [label_path pager store tags] evaluate a
    multi-step descendant path [t1//t2//…//tk] (k >= 1), returning the
    ids of the final step's matches.  The edge plan re-runs its BFS from
    every intermediate result; the label plan pipelines stack joins, one
    per step — the paper's "exactly one self-join per location step". *)
val edge_path : Shredder.edge_store -> string list -> int list

val label_path :
  Pager.t -> Shredder.label_store -> string list -> int list

(** [index_stats store] is the store's {!Label_index.stats} — repairs
    performed, full rebuilds, rows merged. *)
val index_stats : Shredder.label_store -> Label_index.stats

(** [tag_entry pager store tag] is the tag's live index entry: sorted
    [(start, end, rid)] arrays, rebuilt or merge-repaired on access.
    Exposed so read-only execution layers (snapshots in [lib/exec]) can
    freeze a consistent copy; treat the arrays as immutable. *)
val tag_entry :
  Pager.t -> Shredder.label_store -> string -> Label_index.entry

(** {1 The structural-join kernel}

    Every label plan — these serial ones, the chunked-parallel and
    sharded plans in [lib/exec] and [lib/shard] — runs the same kernel
    over a window of its output-driving input, then one of the gathers
    below. *)

(** [semi_join counters ~with_anc a d ~lo ~hi ws] joins ancestor entry
    [a] with descendant positions [\[lo, hi)] of [d] (both sorted by
    start): every descendant in the window that some [a] interval
    contains is written once, ascending, to [ws.w_out], and, when
    [with_anc] (the child axis needs it), the position of its innermost
    containing ancestor to [ws.w_anc]; otherwise [w_anc] is left
    untouched.  Comparisons are charged to [counters].  Allocation-free
    in steady state (R9). *)
val semi_join :
  Ltree_metrics.Counters.t -> with_anc:bool -> Label_index.entry ->
  Label_index.entry -> lo:int -> hi:int -> Label_index.workspace -> unit

(** [inl counters a d ~lo ~hi out] is the index-nested-loop body over
    {e ancestor} positions [\[lo, hi)] of [a]: for each, binary-search
    [d] and write every contained descendant position to [out] (cleared
    first) — once per containing ancestor, so positions may repeat. *)
val inl :
  Ltree_metrics.Counters.t -> Label_index.entry -> Label_index.entry ->
  lo:int -> hi:int -> Ltree_core.Column.t -> unit

(** [gather_entry d out] is a fresh entry of [d]'s rows at positions
    [out] (ascending positions give ascending starts) — the next path
    step's input. *)
val gather_entry : Label_index.entry -> Ltree_core.Column.t -> Label_index.entry

(** [child_ids ~row ~level ~id ~alevel ws] keeps, in place, the matches
    of [ws] that sit one level below their innermost open ancestor — the
    child axis — and rewrites each as [id (row p)].  [row p] reads
    descendant position [p] once; [alevel q] is the depth of ancestor
    position [q], read once per distinct innermost ancestor. *)
val child_ids :
  row:(int -> 'r) -> level:('r -> int) -> id:('r -> int) ->
  alevel:(int -> int) -> Label_index.workspace -> unit

(** [sorted_ids ws] sorts and deduplicates [ws.w_out] in place and
    returns it as a list — the tail of the list-returning plans. *)
val sorted_ids : Label_index.workspace -> int list

(** [gather_rids d out] rewrites each position of [d] in [out] as that
    row's [rids] value, in place: row ids for live entries, Dom ids for
    snapshot entries. *)
val gather_rids : Label_index.entry -> Ltree_core.Column.t -> unit
