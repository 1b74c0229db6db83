(* Per-layer microbenchmarks on inputs captured from the workload that
   is running (its documents and request texts), one per layer a
   request crosses, after eio's per-primitive benches. Each call is
   timed from here, around the layer's public function. *)

open Util
module E = Core.Engine
module R = Xqb_algebra.Runner
module Trace = Xqb_obs.Trace

let cycle arr =
  let i = ref 0 in
  fun () ->
    let x = arr.(!i mod Array.length arr) in
    incr i;
    x

(* Median duration (ns) per span name over many traced calls of [f]. *)
let span_medians eng texts f =
  let by_name = Hashtbl.create 16 in
  Array.iter
    (fun text ->
      let tr = Trace.create () in
      E.with_tracer eng (Some tr) (fun () -> ignore (f text));
      List.iter
        (fun (name, ns) ->
          let s =
            match Hashtbl.find_opt by_name name with
            | Some s -> s
            | None ->
              let s = Samples.create () in
              Hashtbl.replace by_name name s;
              s
          in
          Samples.add s (float_of_int ns))
        (Trace.phase_totals tr))
    texts;
  fun name ->
    match Hashtbl.find_opt by_name name with Some s -> Samples.median s | None -> 0.

(* The compile layer on [texts]: whole [Engine.compile] (untraced), its
   phase split from the engine's own spans, and [Engine.footprint]. *)
let compile_metrics eng texts =
  let next = cycle texts in
  let compile_ns = per_op_ns ~batch:8 (fun () -> ignore (E.compile eng (next ()))) in
  let compiled = Array.map (E.compile eng) texts in
  let nextc = cycle compiled in
  let footprint_ns = per_op_ns ~batch:32 (fun () -> ignore (E.footprint (nextc ()))) in
  let phase = span_medians eng (Array.sub texts 0 (min 64 (Array.length texts))) (E.compile eng) in
  let plan_ns = per_op_ns ~batch:8 (fun () -> ignore (R.plan_of eng (next ()))) in
  [
    m "compile.us" "us" (compile_ns /. 1e3);
    m "compile.parse_us" "us" (phase "parse" /. 1e3);
    m "compile.normalize_us" "us" (phase "normalize" /. 1e3);
    m "compile.static_us" "us" (phase "static.check" /. 1e3);
    m "compile.simplify_us" "us" (phase "simplify" /. 1e3);
    m "compile.ddo_elide_us" "us" (phase "ddo-elide" /. 1e3);
    m "compile.typing_us" "us" (phase "typing" /. 1e3);
    m "compile.footprint_us" "us" (footprint_ns /. 1e3);
    m "algebra.plan_us" "us" (plan_ns /. 1e3);
  ]

(* Read-side evaluation ([Engine.run_readonly]) and result
   serialization on parallel-safe [reads]. *)
let eval_metrics eng reads =
  let compiled = Array.map (E.compile eng) reads in
  Array.iter
    (fun c -> if not (E.parallel_safe c) then failwith ("not parallel-safe: " ^ c.E.source))
    compiled;
  let next = cycle compiled in
  let eval_ns = per_op_ns ~batch:16 (fun () -> ignore (E.run_readonly eng (next ()))) in
  let values = Array.map (E.run_readonly eng) compiled in
  let nextv = cycle values in
  let ser_ns = per_op_ns (fun () -> ignore (E.serialize eng (nextv ()))) in
  [ m "eval.us" "us" (eval_ns /. 1e3); m "xml.serialize_ns" "ns" ser_ns ]

(* The service edge's request parser and the plan-cache hit path. *)
let front_metrics texts =
  let lines = Array.map (fun t -> "QUERY 1 " ^ Xqb_service.Protocol.escape t) texts in
  let nextl = cycle lines in
  let parse_ns =
    per_op_ns (fun () ->
        match Xqb_service.Protocol.parse (nextl ()) with
        | Ok _ -> ()
        | Error e -> failwith e)
  in
  let cache = Xqb_service.Plan_cache.create ~capacity:(max 128 (Array.length texts)) () in
  Array.iter
    (fun t -> Xqb_service.Plan_cache.add cache (Xqb_service.Plan_cache.normalize_key t) ())
    texts;
  let nextt = cycle texts in
  let find_ns =
    per_op_ns (fun () ->
        match
          Xqb_service.Plan_cache.find cache
            (Xqb_service.Plan_cache.normalize_key (nextt ()))
        with
        | Some () -> ()
        | None -> failwith "plan cache miss on a cached text")
  in
  [ m "protocol.parse_ns" "ns" parse_ns; m "plan_cache.find_ns" "ns" find_ns ]

(* The §2 log-entry frame: encode, and commit under fsync=always in a
   fresh WAL. Returns the metrics and the commit latencies' p50/p99
   (ns), which stand in for the server's fsync latencies on workloads
   that never write. *)
let wal_metrics ~dir =
  let q = Xqb_xml.Qname.make in
  let records =
    [
      Xqb_wal.Codec.R_entry
        { seq = 7; op = Xqb_store.Store.M_make (Element, Some (q "logentry"), "") };
      R_entry { seq = 8; op = M_make (Attribute, Some (q "id"), "17") };
      R_entry { seq = 9; op = M_make (Attribute, Some (q "user"), "Kurt Waas") };
      R_entry { seq = 10; op = M_make (Attribute, Some (q "itemid"), "item5") };
      R_entry { seq = 11; op = M_insert (3, Xqb_store.Store.Last, [ 7 ]) };
    ]
  in
  let encode_ns =
    per_op_ns (fun () -> List.iter (fun r -> ignore (Xqb_wal.Codec.frame ~lsn:42 r)) records)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let w = Xqb_wal.Wal.openw ~dir ~policy:Always ~next_lsn:1 ~tail:[] () in
  let commits = Samples.create () in
  Fun.protect
    ~finally:(fun () -> Xqb_wal.Wal.close w)
    (fun () ->
      let t_end = now_ns () + 150_000_000 in
      while Samples.count commits < 20 || now_ns () < t_end do
        let t0 = now_ns () in
        ignore (Xqb_wal.Wal.commit w records);
        Samples.add commits (float_of_int (now_ns () - t0))
      done);
  ( [ m "codec.encode_ns" "ns" (encode_ns /. float_of_int (List.length records));
      m "wal.commit_us" "us" (Samples.median commits /. 1e3) ],
    (Samples.pct commits 50., Samples.pct commits 99.) )

(* A fiber yield + promise resolve/await round trip on one loop. *)
let fiber_metrics () =
  let loop = Xqb_fiber.Fiber.create () in
  let ns = ref nan in
  Xqb_fiber.Fiber.run loop (fun () ->
      ns :=
        per_op_ns ~batch:256 (fun () ->
            let p = Xqb_fiber.Fiber.promise loop in
            Xqb_fiber.Fiber.spawn loop (fun () ->
                Xqb_fiber.Fiber.yield ();
                Xqb_fiber.Fiber.resolve p ());
            Xqb_fiber.Fiber.await p));
  [ m "fiber.roundtrip_ns" "ns" !ns ]

(* Plan execution on [texts] through [Runner.run] with a tracer: the
   exec.plan span, snap application, join matches and order-key
   rebuilds per query. Medians over [n] calls. *)
let runner_metrics eng texts ~n =
  let exec = Samples.create ()
  and snap = Samples.create ()
  and matches = Samples.create ()
  and okeys = Samples.create () in
  let store = E.store eng in
  for i = 0 to n - 1 do
    let text = texts.(i mod Array.length texts) in
    let tr = Trace.create () in
    let ok0 = Xqb_store.Store.order_key_builds store in
    let r = E.with_tracer eng (Some tr) (fun () -> R.run eng text) in
    let phases = Trace.phase_totals tr in
    let get k = float_of_int (Option.value ~default:0 (List.assoc_opt k phases)) in
    Samples.add exec (get "exec.plan");
    Samples.add snap (get "snap.apply");
    Samples.add matches (float_of_int r.R.stats.matches);
    Samples.add okeys (float_of_int (Xqb_store.Store.order_key_builds store - ok0))
  done;
  [
    m "algebra.exec_ms" "ms" (Samples.median exec /. 1e6);
    m "snap.apply_ms" "ms" (Samples.median snap /. 1e6);
    m "algebra.join_matches" "count" (Samples.median matches);
    m "store.okey_builds_per_query" "count" (Samples.median okeys);
  ]

(* In-process scheduler on two domains, [reads] pipelined four deep:
   queue wait and exclusive share from the service's own STATS. *)
let sched_metrics ~xml reads =
  let svc = Xqb_service.Service.create ~domains:2 ~tracing:true ~telemetry:false () in
  Fun.protect ~finally:(fun () -> Xqb_service.Service.shutdown svc) @@ fun () ->
  let sid = Xqb_service.Service.open_session svc in
  Xqb_service.Service.load_document svc sid ~uri:"auction" xml;
  let next = cycle reads in
  let t_end = now_ns () + 300_000_000 in
  let inflight = Queue.create () in
  while now_ns () < t_end do
    while Queue.length inflight < 4 do
      Queue.push (Xqb_service.Service.submit svc sid (next ())) inflight
    done;
    match Xqb_service.Service.await (Queue.pop inflight) with
    | Ok _ -> ()
    | Error e -> failwith (Xqb_service.Service_error.to_string e)
  done;
  Queue.iter (fun f -> ignore (Xqb_service.Service.await f)) inflight;
  let j = Xqb_obs.Json.parse_exn (Xqb_service.Service.stats_json svc) in
  [
    m "sched.queue_wait_us_p50" "us" (Wire.num j [ "phases_ns"; "queue.wait"; "p50" ] /. 1e3);
    m "sched.queue_wait_us_p99" "us" (Wire.num j [ "phases_ns"; "queue.wait"; "p99" ] /. 1e3);
    m "sched.exclusive_ratio" "ratio"
      (Wire.num j [ "queries"; "exclusive" ] /. Wire.num j [ "queries"; "total" ]);
  ]

(* The suite every traced run ends with. [texts]: the workload's
   request texts (compiled in [eng], which holds its document and
   declarations); [reads]: parallel-safe texts for the read side. *)
let suite ~eng ~texts ~reads ~dir =
  let wal, fsync = wal_metrics ~dir:(Filename.concat dir "wal-micro") in
  ( front_metrics texts @ compile_metrics eng texts @ eval_metrics eng reads @ wal
    @ fiber_metrics (),
    fsync )

(* What each per-layer metric should move, and where: printed beside
   the numbers of a traced run and recorded in perfbench/README.md. *)
let moves =
  [
    ("protocol.", "p50_ms on hot-read");
    ("edge.", "p50_ms on hot-read");
    ("xml.serialize", "p50_ms on hot-read");
    ("fiber.", "p50_ms on hot-read");
    ("plan_cache.", "throughput_ops_s on ws-mix (misses) against hot-read (hits)");
    ("compile.", "p50_ms and throughput_ops_s on ws-mix");
    ("sched.", "write latency and throughput_ops_s on ws-mix");
    ("eval.", "p50_ms on ws-mix and hot-read");
    ("algebra.", "p50_ms and throughput_ops_s on q8-plan");
    ("snap.", "p50_ms on q8-plan");
    ("store.okey", "p50_ms on q8-plan");
    ("gc.", "p50_ms on q8-plan");
    ("wal.", "write latency and throughput_ops_s on ws-mix");
    ("codec.", "write latency on ws-mix");
    ("xml.load", "setup_s");
    ("store.nodes", "setup_s, rss_peak_mb");
    ("trace.", "(the cost of tracing itself)");
  ]

let moves_of name =
  match
    List.find_opt
      (fun (p, _) -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
      moves
  with
  | Some (_, w) -> w
  | None -> ""
