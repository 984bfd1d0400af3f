(** The primary-plus-replica topology of the
    {!Ltree_recovery.Fault_matrix} engine: the store-level discipline
    lifted to a replicated pair.

    It shares the engine's seeded script and bit-exact oracle, then
    sweeps three sites of failure, each in every
    {!Ltree_recovery.Fault.mode}:

    - {b primary} cells ([primary:P<n>/<mode>]) kill the primary's store
      at every write point; the replica is promoted
      ({!Session.failover}) and the survivor must be a bit-exact oracle
      prefix no longer than what the primary attempted, at a higher
      epoch;
    - {b replica} cells ([replica:P<n>/<mode>]) kill the replica's store
      at every one of {e its} write points; it recovers from its own
      surviving files, re-attaches ({!Session.replace_replica}),
      finishes the script and must converge to the full oracle — total
      loss is accepted only before the bootstrap snapshot landed;
    - {b channel} cells ([channel:C<n>/<mode>]) sever the record stream
      at every chunk (the cut chunk damaged per the mode); after
      {!Session.reconnect} the replica must fully resync;

    plus one divergence probe ([probe:divergence]): a rogue write into
    the replica's store outside the stream must be detected, and reads
    and promotion must refuse. *)

type site = Primary | Replica | Channel

val grammar : site Ltree_recovery.Fault_matrix.grammar

type outcome =
  | Promoted of { applied : int; attempted : int }
  | Reattached of Ltree_recovery.Fault_matrix.recovery
      (** the replica's own recovery ([Unrecoverable]: lost before its
          bootstrap snapshot landed) *)
  | Resynced
  | No_pair
      (** the primary died before the pair finished establishing *)
  | Diverged_detected
  | Incomplete of { detail : string }  (** the cell never reached its
                                           verdict — always a failure *)

type summary = (site, outcome) Ltree_recovery.Fault_matrix.summary

(** [describe s] is a one-line human summary of the sweep. *)
val describe : summary -> string

(** [run ?pool ?progress ?only ?inject config] sweeps every site through
    {!Ltree_recovery.Fault_matrix.sweep} (which documents [pool],
    [progress], [only] and [inject]).  Raises [Invalid_argument] when
    the uninjected profile run crashes or does not converge. *)
val run :
  ?pool:Ltree_exec.Pool.t ->
  ?progress:(done_cells:int -> total:int -> unit) ->
  ?only:site Ltree_recovery.Fault_matrix.id ->
  ?inject:site Ltree_recovery.Fault_matrix.id ->
  Ltree_recovery.Fault_matrix.config ->
  summary
