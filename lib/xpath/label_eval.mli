(** Label-based XPath evaluation — the paper's motivating use.

    A child or descendant step is one {e semi-join} between the context
    set and the step's tag index, comparing L-Tree label intervals
    instead of navigating the tree: ancestor/descendant is interval
    containment ([start_a < start_d && end_d < end_a], §1), parent/child
    adds a level equality.  Both inputs are arrays sorted by start label
    and free of duplicates; one stack pass over them emits each
    candidate once, in document order, if an open context contains it
    (child axis: if the innermost one is its parent), leaping over
    uncovered stretches by binary search.  The output is the next
    step's context array as it stands — no pairs, no grouping, no
    dedup, no sort.  Predicates that read no position filter it item by
    item; a [[p]] whose path is one child/descendant step runs as the
    same pass from the ancestor side over the whole output.

    Only a step whose predicates read positions ([[k]], [[last()]])
    needs per-context groups: each context's group is a range scan of
    the candidates between its start and end labels (child axis: one
    level below it), and the survivors are read back in candidate order.
    The other axes select per context and merge through a dedup table.

    Results are identical to {!Dom_eval} (property-tested) but need no
    subtree traversal, which is what makes labels worth maintaining under
    updates. *)

open Ltree_xml

type t

(** [create ldoc] builds the tag index over the labeled document. *)
val create : Ltree_doc.Labeled_doc.t -> t

(** [refresh t] rebuilds the tag index; call it after structural updates
    (label changes alone do not require it — labels are read fresh at
    query time). *)
val refresh : t -> unit

(** [eval t path] returns matching nodes in document order, without
    duplicates. *)
val eval : t -> Ast.t -> Dom.node list

(** [eval_string t s] parses and evaluates.  Raises
    {!Xpath_parser.Error} on a bad path. *)
val eval_string : t -> string -> Dom.node list
