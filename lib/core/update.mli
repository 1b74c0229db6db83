(** Update requests and pending-update lists (∆) — §3.2.

    An update request is the tuple "opname(par1, ..., parn)" of the
    paper; its application is a partial function on stores. A ∆ is an
    ordered list of requests, collected during evaluation inside a
    snap scope and applied when the scope closes ({!Apply}).

    Every request carries a {!provenance} record — the source position
    of the effecting expression, the snap-stack depth at emission, and
    the emitting job's trace id when tracing — so conflict errors, the
    store mutation journal, and ∆ introspection can name the exact
    expression responsible for an effect.

    Insert positions: [First]/[Last] are kept symbolic and resolved at
    {e application} time; [Before]/[After] anchor on nodes. This
    follows the paper's §3.4 worked example (and the later XQuery
    Update Facility) rather than the appendix's evaluation-time
    "last child otherwise self" resolution — the two are inconsistent
    in the paper; see EXPERIMENTS.md "Deviations". *)

type position =
  | First
  | Last
  | Before of Xqb_store.Store.node_id
  | After of Xqb_store.Store.node_id

type op =
  | Insert of {
      nodes : Xqb_store.Store.node_id list;
      parent : Xqb_store.Store.node_id;
      position : position;
    }
  | Delete of Xqb_store.Store.node_id  (** detach, §3.1 *)
  | Rename of Xqb_store.Store.node_id * Xqb_xml.Qname.t
  | Set_value of Xqb_store.Store.node_id * string
      (** XQUF "replace value of node": content for
          text/comment/PI/attribute nodes; for elements/documents all
          children are replaced by one text node *)

type provenance = {
  src_line : int;  (** 0 when unknown (hand-built deltas) *)
  src_col : int;
  snap_depth : int;  (** snap-stack depth at emission time *)
  trace_id : string option;
}

val no_provenance : provenance

(** True iff the provenance carries a real source position. *)
val has_location : provenance -> bool

(** ["3:12 (snap depth 1, trace t42)"]; [""] without a location. *)
val provenance_to_string : provenance -> string

type request = { op : op; prov : provenance }

(** Build a request; [prov] defaults to {!no_provenance}. *)
val make : ?prov:provenance -> op -> request

type delta = request list

val position_to_string : position -> string
val op_to_string : op -> string
val op_kind_name : op -> string

(** Renders the op only (raw node ids), provenance elided — the
    compact debug form. *)
val request_to_string : request -> string

val delta_to_string : delta -> string

(** {1 Store-aware rendering}

    With a store at hand, node ids render as stable paths
    ("/site/regions[1]/africa[1]", {!Xqb_store.Store.node_path});
    requests append their source location and snap depth. Used by
    [--show-delta], conflict explanations, and the journal. *)

val render_op : Xqb_store.Store.t -> op -> string
val render_request : Xqb_store.Store.t -> request -> string
val render_delta : Xqb_store.Store.t -> delta -> string

(** {1 ∆ statistics}

    Mutable per-evaluation counters behind the [DELTA] wire command
    and the [--show-delta] summary: requests by kind, snap-depth
    histogram, conflict checks. *)

val depth_buckets : int

type stats = {
  mutable snaps : int;
  mutable inserts : int;
  mutable deletes : int;
  mutable renames : int;
  mutable set_values : int;
  mutable conflicts_checked : int;
  mutable max_snap_depth : int;
  depth_hist : int array;  (** length {!depth_buckets}; last is overflow *)
}

val stats_create : unit -> stats
val stats_reset : stats -> unit

(** Record one applied ∆ (one snap scope closing). *)
val stats_record : stats -> ?conflict_checked:bool -> delta -> unit

val stats_requests : stats -> int
val stats_to_string : stats -> string

(** Apply one request. Partial: @raise Xqb_store.Store.Update_error
    when a precondition fails, with ["at <line>:<col>: "] prefixed
    when the request's provenance carries a location. Applied requests
    are noted in the store's mutation journal when it is recording. *)
val apply_request : Xqb_store.Store.t -> request -> unit

(** Apply a run of [Delete] requests through one
    {!Xqb_store.Store.detach_many}: the same store, mutation count and
    journals as [List.iter (apply_request store)], in linear time.
    @raise Invalid_argument on a request that is not a [Delete]. *)
val apply_deletes : Xqb_store.Store.t -> request list -> unit
