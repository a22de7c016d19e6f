(** Immutable sets of node ids, stored as sorted arrays of distinct ints.

    This is the representation of every node set the enumeration algorithms
    manipulate: the growing solution [R], the candidate set [P], the
    exclusion set [X], [N^s(v)] balls and the emitted results. The
    operations that dominate the algorithms' running time — intersection
    and difference against a ball — use a linear merge when the operands
    have similar sizes and a galloping (binary-search) scan when one side
    is much smaller, so intersecting a huge [P] with a small ball costs
    O(|ball| log |P|) rather than O(|P|). *)

type t

val empty : t

val singleton : int -> t

val of_list : int list -> t
(** Sorts and deduplicates. *)

val of_array : int array -> t
(** Sorts and deduplicates; the argument is not modified. *)

val sort_ints : int array -> tmp:int array -> int -> int -> unit
(** [sort_ints a ~tmp lo hi] sorts [a.(lo) .. a.(hi-1)] ascending in
    place (duplicates kept): the int merge sort behind {!of_array}, for
    callers that own their buffers. It writes only [tmp.(lo) ..
    tmp.(hi-1)], and none of [tmp] when [hi - lo <= 16].
    @raise Invalid_argument when a range does not fit its array. *)

val of_sorted_array_unchecked : int array -> t
(** O(1) adoption of an array the caller promises is sorted and duplicate
    free. The caller must not mutate it afterwards. *)

val to_list : t -> int list

val to_array : t -> int array
(** Fresh copy; safe to mutate. *)

val cardinal : t -> int

val is_empty : t -> bool

val mem : int -> t -> bool
(** O(log n) binary search. *)

val add : int -> t -> t

val remove : int -> t -> t

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool
(** [subset a b] is true when every element of [a] is in [b]. *)

val disjoint : t -> t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order: lexicographic on the sorted elements. This is the key
    order of PolyDelayEnum's B-tree index. *)

val min_elt : t -> int
(** @raise Not_found on the empty set. *)

val max_elt : t -> int
(** @raise Not_found on the empty set. *)

val choose : t -> int
(** An arbitrary (deterministic) element. @raise Not_found when empty. *)

val nth : t -> int -> int
(** [nth s i] is the [i]-th smallest element. @raise Invalid_argument when
    out of bounds. *)

val iter : (int -> unit) -> t -> unit
(** Increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val for_all : (int -> bool) -> t -> bool

val exists : (int -> bool) -> t -> bool

val filter : (int -> bool) -> t -> t

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b = cardinal (inter a b)] without allocating the
    intersection. *)

val diff_cardinal : t -> t -> int
(** [diff_cardinal a b = cardinal (diff a b)] without allocating. *)

val range : int -> int -> t
(** [range lo hi] is [{lo, .., hi-1}] (empty when [lo >= hi]). *)

(** {2 Bitset bridge}

    Sorted sets into and out of word bitsets, for the hot paths that
    test membership one word at a time: a scratch mask reloaded with
    one set after another ({!load_bitset}), or a set seen through a
    renumbering ({!scatter_ranks}). The sorted-array representation
    remains the module boundary. *)

val to_bitset : t -> capacity:int -> Scoll.Bitset.t
(** Fresh bitset of the given capacity holding exactly the members.
    @raise Invalid_argument when an element is outside the capacity. *)

val of_bitset : Scoll.Bitset.t -> t
(** The members of the bitset, as a sorted set. *)

val load_bitset : Scoll.Bitset.t -> prev:t -> t -> unit
(** [load_bitset mask ~prev s] reloads a scratch mask whose current
    contents are exactly [prev] so that it holds exactly [s], in
    O(|prev| + |s|) closure-free stores (word-zeroing [prev]'s footprint,
    then setting [s]). Undefined if the mask holds anything besides
    [prev]. *)

val scatter_ranks : t -> rank:int array -> into:int array -> off:int -> unit
(** [scatter_ranks s ~rank ~into ~off] sets bit [rank.(x)] of the bitset
    stored in [into] from word [off] on (32 bits per word, as in
    {!Scoll.Bitset}) for every member [x] of [s] with [rank.(x) >= 0]:
    [s] seen through a renumbering that drops the nodes it maps to [-1].
    @raise Invalid_argument when a member or a word falls outside
    [rank] or [into]. *)

val scatter_column :
  t -> slot:int array -> into:int array -> stride:int -> off:int -> mask:int -> unit
(** [scatter_column s ~slot ~into ~stride ~off ~mask] ors [mask] into
    word [off + slot.(x) * stride] of [into] for every member [x] of [s]
    with [slot.(x) >= 0]: the transpose of {!scatter_ranks}, the same
    bit set in one row per member, where [into] holds rows of [stride]
    words and [off] picks the word within a row.
    @raise Invalid_argument when a member or a word falls outside
    [slot] or [into]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{1, 5, 9}]. *)

val to_string : t -> string
