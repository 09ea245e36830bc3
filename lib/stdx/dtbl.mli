(** Deterministic traversal of hash tables.

    [Hashtbl]'s own [iter]/[fold] visit bindings in bucket order, which
    depends on the table's growth history and on the hash of every key
    ever inserted — replaying a run with one extra insertion can reorder
    tallies, message emission and therefore whole traces.  Protocol code
    (see the [R2] lint rule in docs/LINT.md) must traverse tables through
    this module instead: keys are collected, sorted with an explicit
    monomorphic comparator, and visited in that order, so a traversal is a
    pure function of the table's {e contents}.

    All helpers assume replace-semantics — at most one binding per key
    (i.e. the table is populated with [Hashtbl.replace], never shadowed
    with [Hashtbl.add]).  Under duplicate bindings only the most recent
    one is visited, and it is visited once per copy of the key. *)

(** [keys tbl] is the key list of [tbl], in unspecified order.  Useful as
    input to a caller-side sort when the sort key is not the table key. *)
val keys : ('a, 'b) Hashtbl.t -> 'a list

(** [sorted_keys ~cmp tbl] is [keys tbl] sorted by [cmp]. *)
val sorted_keys : cmp:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> 'a list

(** [iter_sorted ~cmp f tbl] applies [f key value] in ascending [cmp]
    order of the keys. *)
val iter_sorted : cmp:('a -> 'a -> int) -> ('a -> 'b -> unit) -> ('a, 'b) Hashtbl.t -> unit

(** [fold_sorted ~cmp f tbl init] folds [f key value acc] in ascending
    [cmp] order of the keys. *)
val fold_sorted :
  cmp:('a -> 'a -> int) -> ('a -> 'b -> 'c -> 'c) -> ('a, 'b) Hashtbl.t -> 'c -> 'c

(** [bindings_sorted ~cmp tbl] is the binding list in ascending [cmp]
    order of the keys. *)
val bindings_sorted : cmp:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> ('a * 'b) list

(** Monomorphic comparators for the key shapes the protocols use
    (processor ids and small id tuples); [compare]'s polymorphic runtime
    walk is both slower and banned in protocol code (lint rule [R3]). *)

val int_cmp : int -> int -> int
val pair_cmp : int * int -> int * int -> int
val int_list_cmp : int list -> int list -> int
