(** The single-store topology of the {!Fault_matrix} engine: kill the
    durable store at {e every} write point, in every corruption mode,
    recover, and check the result against the bit-exact oracle.

    One run generates the seeded script, records the oracle (plus the
    pristine query answer at every prefix), runs the workload once
    uninjected to learn the number of write points [P], then for each
    point [1..P] and each {!Fault.mode} runs the workload with that
    crash scripted, recovers from the surviving files, and verifies:

    - the recovered store passes {!Fault_matrix.verify_store} at the
      durable prefix (labels bit-identical, content CRC, the full
      invariant registry at [Deep]);
    - the durable prefix lies in [[synced, attempted]] — group commit
      may lose unflushed tail operations but never synced ones;
    - a descendant query [anc//desc] over a re-shredded recovered
      store returns what a DOM walk over the recovered document finds,
      and what the same query returned over the pristine prefix — the
      pair with the most matches below the root at that prefix, so the
      answer is not empty;
    - total loss of the store is accepted only for crashes before the
      very first checkpoint completed.

    Cells are named [P<point>/<mode>], e.g. ["P37/torn"]. *)

type outcome = Fault_matrix.recovery
type summary = (unit, outcome) Fault_matrix.summary

(** The one site, printed with an empty prefix. *)
val grammar : unit Fault_matrix.grammar

(** [pristine_queries config] is, per prefix [k] of [config]'s script
    ([0..ops]), the query the check asks there: [(anc, desc, answer)],
    the answer the sorted start labels the label plan found over the
    pristine prefix, or [None] if the plan and the DOM walk disagreed
    there. *)
val pristine_queries :
  Fault_matrix.config -> (string * string * int list option) array

(** [run ?pool ?progress ?only config] sweeps point x mode through
    {!Fault_matrix.sweep}; [only] replays one cell against the same
    script and write-point numbering as the full matrix. *)
val run :
  ?pool:Ltree_exec.Pool.t ->
  ?progress:(done_cells:int -> total:int -> unit) ->
  ?only:unit Fault_matrix.id ->
  Fault_matrix.config ->
  summary
