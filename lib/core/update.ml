(* Update requests and pending-update lists (∆) — §3.2.

   An update request is a tuple "opname(par1, ..., parn)"; its
   application is a partial function from stores to stores (the
   preconditions are enforced by [Xqb_store.Store]). A ∆ is an
   *ordered* list of requests; the order is fully specified by the
   language semantics, and whether application honors it depends on
   the snap mode ([Apply]).

   Every request also carries a provenance record — where in the query
   source the effecting expression sat, how deep in the snap stack it
   ran, and (when tracing) which trace it belongs to — so conflict
   errors, the mutation journal, and ∆ introspection can cite the
   exact expression responsible for an effect.

   Note on insert positions: the paper's worked example in §3.4
   (snap ordered { insert <a/>; snap { insert <b/> }; insert <c/> }
   yielding b,a,c) requires "into" to mean *as last at application
   time*: the inner snap's <b/> lands before the outer <a/> only if
   the outer inserts resolve "last" when the outer ∆ is applied, not
   when the insert expression is evaluated. The appendix's
   "last child otherwise self" judgement resolves the anchor at
   evaluation time, which would yield a,b,c instead. We follow the
   worked example (and the later XQuery Update Facility), keeping
   First/Last symbolic and Before/After anchored on nodes. *)

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
  | Delete of Xqb_store.Store.node_id
  | Rename of Xqb_store.Store.node_id * Xqb_xml.Qname.t
  | Set_value of Xqb_store.Store.node_id * string
    (* XQUF "replace value of node": for text/comment/PI/attribute
       nodes set the content; for elements/documents replace all
       children by one text node with the given value *)

type provenance = {
  src_line : int;  (* 0 when unknown (e.g. hand-built deltas) *)
  src_col : int;
  snap_depth : int;  (* snap-stack depth at emission time *)
  trace_id : string option;  (* the emitting job's trace, if traced *)
}

let no_provenance = { src_line = 0; src_col = 0; snap_depth = 0; trace_id = None }

let has_location p = p.src_line > 0

let provenance_to_string p =
  if not (has_location p) then ""
  else
    Printf.sprintf "%d:%d (snap depth %d%s)" p.src_line p.src_col p.snap_depth
      (match p.trace_id with None -> "" | Some t -> ", trace " ^ t)

type request = { op : op; prov : provenance }

let make ?(prov = no_provenance) op = { op; prov }

(* ∆: most-recent request last. Represented as a reversed list inside
   accumulation frames (see [Snap_stack]) and materialized in order
   here. *)
type delta = request list

let position_to_string = function
  | First -> "first"
  | Last -> "last"
  | Before n -> Printf.sprintf "before(%d)" n
  | After n -> Printf.sprintf "after(%d)" n

let op_to_string = function
  | Insert { nodes; parent; position } ->
    Printf.sprintf "insert([%s], %d, %s)"
      (String.concat ";" (List.map string_of_int nodes))
      parent
      (position_to_string position)
  | Delete n -> Printf.sprintf "delete(%d)" n
  | Rename (n, q) -> Printf.sprintf "rename(%d, %s)" n (Xqb_xml.Qname.to_string q)
  | Set_value (n, s) -> Printf.sprintf "set-value(%d, %S)" n s

let request_to_string r = op_to_string r.op

let delta_to_string d = String.concat ", " (List.map request_to_string d)

let op_kind_name = function
  | Insert _ -> "insert"
  | Delete _ -> "delete"
  | Rename _ -> "rename"
  | Set_value _ -> "set-value"

(* -- Store-aware rendering ------------------------------------------ *)

(* With a store at hand, render node ids as stable paths
   ("/site/regions[1]/africa[1]") instead of raw integers. Falls back
   to "#<id>" for ids the store no longer knows. *)
let node_str store n =
  match Xqb_store.Store.node_path store n with
  | p -> p
  | exception _ -> Printf.sprintf "#%d" n

let render_position store = function
  | First -> "first"
  | Last -> "last"
  | Before n -> Printf.sprintf "before %s" (node_str store n)
  | After n -> Printf.sprintf "after %s" (node_str store n)

let render_op store = function
  | Insert { nodes; parent; position } ->
    Printf.sprintf "insert [%s] into %s at %s"
      (String.concat "; " (List.map (node_str store) nodes))
      (node_str store parent)
      (render_position store position)
  | Delete n -> Printf.sprintf "delete %s" (node_str store n)
  | Rename (n, q) ->
    Printf.sprintf "rename %s to %s" (node_str store n) (Xqb_xml.Qname.to_string q)
  | Set_value (n, s) ->
    Printf.sprintf "set value of %s to %S" (node_str store n) s

let render_request store r =
  let loc =
    if has_location r.prov then
      Printf.sprintf " @ %d:%d" r.prov.src_line r.prov.src_col
    else ""
  in
  Printf.sprintf "%s%s [snap depth %d]" (render_op store r.op) loc
    r.prov.snap_depth

let render_delta store d =
  String.concat "\n" (List.map (render_request store) d)

(* -- ∆ statistics (the DELTA wire command / --show-delta summary) --- *)

(* Snap-depth histogram buckets: 0..depth_buckets-2 exact, the last
   bucket collects everything deeper. *)
let depth_buckets = 8

type stats = {
  mutable snaps : int;  (* snap scopes whose ∆ was applied *)
  mutable inserts : int;
  mutable deletes : int;
  mutable renames : int;
  mutable set_values : int;
  mutable conflicts_checked : int;  (* ∆s run through Conflict.check *)
  mutable max_snap_depth : int;
  depth_hist : int array;  (* requests by emission snap depth *)
}

let stats_create () =
  { snaps = 0; inserts = 0; deletes = 0; renames = 0; set_values = 0;
    conflicts_checked = 0; max_snap_depth = 0;
    depth_hist = Array.make depth_buckets 0 }

let stats_reset s =
  s.snaps <- 0;
  s.inserts <- 0;
  s.deletes <- 0;
  s.renames <- 0;
  s.set_values <- 0;
  s.conflicts_checked <- 0;
  s.max_snap_depth <- 0;
  Array.fill s.depth_hist 0 depth_buckets 0

let stats_record s ?(conflict_checked = false) (d : delta) =
  s.snaps <- s.snaps + 1;
  if conflict_checked then s.conflicts_checked <- s.conflicts_checked + 1;
  List.iter
    (fun r ->
      (match r.op with
      | Insert _ -> s.inserts <- s.inserts + 1
      | Delete _ -> s.deletes <- s.deletes + 1
      | Rename _ -> s.renames <- s.renames + 1
      | Set_value _ -> s.set_values <- s.set_values + 1);
      let d = r.prov.snap_depth in
      if d > s.max_snap_depth then s.max_snap_depth <- d;
      let b = if d >= depth_buckets then depth_buckets - 1 else max 0 d in
      s.depth_hist.(b) <- s.depth_hist.(b) + 1)
    d

let stats_requests s = s.inserts + s.deletes + s.renames + s.set_values

let stats_to_string s =
  Printf.sprintf
    "snaps=%d requests=%d (insert=%d delete=%d rename=%d set-value=%d) \
     conflicts-checked=%d max-depth=%d"
    s.snaps (stats_requests s) s.inserts s.deletes s.renames s.set_values
    s.conflicts_checked s.max_snap_depth

(* The mutation-journal provenance note preceding a request's ops. *)
let provenance_note r =
  Xqb_store.Store.M_request
    { line = r.prov.src_line; col = r.prov.src_col; snap_depth = r.prov.snap_depth;
      trace_id = r.prov.trace_id; desc = op_kind_name r.op }

(* Apply one request to the store. Partial: raises
   [Xqb_store.Store.Update_error] when a precondition fails — with the
   request's source location prefixed when provenance carries one.
   Every successfully applied request is noted in the store's mutation
   journal (a no-op branch when journaling is off). *)
let apply_request store (r : request) =
  let apply_op () =
    match r.op with
    | Insert { nodes; parent; position } -> (
      match position with
      | First -> Xqb_store.Store.insert store ~parent ~position:Xqb_store.Store.First nodes
      | Last -> Xqb_store.Store.insert store ~parent ~position:Xqb_store.Store.Last nodes
      | After anchor ->
        Xqb_store.Store.insert store ~parent ~position:(Xqb_store.Store.After anchor) nodes
      | Before anchor ->
        (* before(x) = after the preceding sibling of x, or first *)
        let a = Xqb_store.Store.get store anchor in
        if a.Xqb_store.Store.parent <> Some parent then
          raise
            (Xqb_store.Store.Update_error
               "insertion anchor is not a child of the target parent");
        if a.Xqb_store.Store.pos = 0 then
          Xqb_store.Store.insert store ~parent ~position:Xqb_store.Store.First nodes
        else
          let prev =
            Xqb_store.Store.nth_child store parent (a.Xqb_store.Store.pos - 1)
          in
          Xqb_store.Store.insert store ~parent ~position:(Xqb_store.Store.After prev)
            nodes)
    | Delete n -> Xqb_store.Store.detach store n
    | Rename (n, q) -> Xqb_store.Store.rename store n q
    | Set_value (n, s) -> (
      match Xqb_store.Store.kind store n with
      | Xqb_store.Store.Text | Xqb_store.Store.Comment | Xqb_store.Store.Pi
      | Xqb_store.Store.Attribute ->
        Xqb_store.Store.set_content store n s
      | Xqb_store.Store.Element | Xqb_store.Store.Document ->
        Xqb_store.Store.detach_many store (Xqb_store.Store.children store n);
        if s <> "" then
          Xqb_store.Store.insert store ~parent:n ~position:Xqb_store.Store.Last
            [ Xqb_store.Store.make_text store s ])
  in
  if Xqb_store.Store.journal_active store then
    Xqb_store.Store.journal_note store (provenance_note r);
  try apply_op ()
  with Xqb_store.Store.Update_error m when has_location r.prov ->
    raise
      (Xqb_store.Store.Update_error
         (Printf.sprintf "at %d:%d: %s" r.prov.src_line r.prov.src_col m))

(* A run of [Delete] requests as one batched detach
   ([Store.detach_many]): the same store and journal as applying them
   one by one, in linear time. Detach never fails a precondition
   (§3.1), so there is no error to locate. *)
let apply_deletes store (rs : request list) =
  let ids =
    List.map
      (fun r -> match r.op with Delete n -> n | _ -> invalid_arg "Update.apply_deletes")
      rs
  in
  let notes =
    if Xqb_store.Store.journal_active store then Some (List.map provenance_note rs) else None
  in
  Xqb_store.Store.detach_many store ?notes ids
