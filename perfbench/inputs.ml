(* Seeded inputs, all made before any clock starts: XMark documents
   written as XML files (the program under test only ever receives the
   files), request streams, and the answers every reply is checked
   against. *)

module G = Xqb_xmark.Generator
module E = Core.Engine

(* Document shapes. [Q8] is the §4.3 instance at 1600 persons / 3200
   closed auctions; [Q8_small] the 100/200 instance for the setup-time
   equivalence check; [Scale4] the XMark scale-4 document (~1000
   persons) the service workloads load. *)
type shape = Q8 | Q8_small | Scale4

let shape_name = function Q8 -> "q8" | Q8_small -> "q8small" | Scale4 -> "scale4"

let shape_of_name = function
  | "q8" -> Q8
  | "q8small" -> Q8_small
  | "scale4" -> Scale4
  | s -> invalid_arg ("unknown document shape " ^ s)

let config shape seed =
  match shape with
  | Q8 -> { G.default with G.persons = 1600; closed_auctions = 3200; seed }
  | Q8_small -> { G.default with G.persons = 100; closed_auctions = 200; seed }
  | Scale4 -> { (G.scaled 4.0) with G.seed }

(* Child-process entry point: write one document and exit. Generation
   runs in its own process so its allocations never show in the
   benchmark process's peak RSS. *)
let write_xml shape seed path =
  let oc = open_out_bin path in
  output_string oc (G.to_xml (config shape seed));
  close_out oc

let generate shape seed path =
  let argv =
    [| Sys.executable_name; "--gen"; shape_name shape; "--seed"; string_of_int seed;
       "--out"; path |]
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  match Unix.waitpid [] pid with
  | _, WEXITED 0 -> ()
  | _ -> failwith ("document generation failed: " ^ path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A fresh engine with the document at [path] bound to $auction. *)
let engine_of_file path =
  let eng = E.create () in
  let doc = Xqb_store.Store.load_string (E.store eng) (read_file path) in
  E.bind_node eng "auction" doc;
  eng

(* Nodes of the $auction document, attributes included: the size of
   what a LOAD puts in the store. *)
let doc_nodes eng =
  Xqb_xdm.Value.to_integer (E.store eng)
    (E.run eng "count($auction/descendant-or-self::node()) + count($auction//@*)")

(* The reply payload the server sends for a query result. *)
let reply_of eng v = Xqb_service.Protocol.escape (E.serialize eng v)

(* ---------- the §4.3 query ---------- *)

(* XMark Q8 with a logging insert in the inner return clause (the text
   of bench/workloads.ml's [q8_with_inserts]). *)
let q8_with_inserts =
  {|for $p in $auction//person
    let $a :=
      for $t in $auction//closed_auction
      where $t/buyer/@person = $p/@id
      return (insert { <buyer person="{$t/buyer/@person}"
                       itemid="{$t/itemref/@item}" /> }
              into { $purchasers }, $t)
    return <item person="{ $p/name }">{ count($a) }</item>|}

let purge = "delete { $purchasers/* }"

(* ---------- the §2 web service ---------- *)

(* The paper's §2 web-service module with $maxlog = 16 (the text of
   bench/workloads.ml's [web_service_module 16], fixed here so the
   benchmark's workload cannot drift with the experiment benches). *)
let web_service_module =
  {|
declare variable $log := <log/>;
declare variable $archive := <archive/>;
declare variable $maxlog := 16;
declare variable $d := element counter { 0 };

declare function nextid() as xs:integer {
  snap { replace { $d/text() } with { $d + 1 }, xs:integer($d) }
};

declare function archivelog($log, $archive) {
  snap insert { <batch size="{count($log/logentry)}"/> } into { $archive }
};

declare function get_item_nolog($itemid, $userid) {
  let $item := $auction//item[@id = $itemid]
  return $item
};

declare function get_item($itemid, $userid) {
  let $item := $auction//item[@id = $itemid]
  return (
    let $name := $auction//person[@id = $userid]/name
    return
      (snap insert { <logentry id="{nextid()}" user="{$name}" itemid="{$itemid}"/> }
        into { $log },
      if (count($log/logentry) >= $maxlog)
      then (archivelog($log, $archive),
            snap delete { $log/logentry })
      else ()),
    $item
  )
};
|}

type ws_req = { write : bool; text : string; expect : string }

(* (item id, expected reply of .../name/text()) for every item, and
   every person id, read from the document itself. *)
let item_and_person_ids eng =
  let store = E.store eng in
  let attr n name =
    List.find_map
      (fun a ->
        match Xqb_store.Store.name store a with
        | Some q when Xqb_xml.Qname.local q = name -> Some (Xqb_store.Store.content store a)
        | _ -> None)
      (Xqb_store.Store.attributes store n)
  in
  let nodes q = Xqb_xdm.Value.nodes_of (E.run eng q) in
  let items =
    List.map
      (fun n ->
        let id = Option.get (attr n "id") in
        (id, reply_of eng (E.run eng (Printf.sprintf "$auction//item[@id = '%s']/name/text()" id))))
      (nodes "$auction//item")
  in
  let persons = List.map (fun n -> Option.get (attr n "id")) (nodes "$auction//person") in
  (Array.of_list items, Array.of_list persons)

(* [n] requests for one session: 30% logging get_item, 70%
   get_item_nolog, item and person drawn uniformly from the whole
   document, so texts rarely repeat and the plan cache misses. *)
let ws_stream ~seed ~session ~items ~persons n =
  let rng = Random.State.make [| seed; session; 0x5e55 |] in
  Array.init n (fun _ ->
      let id, expect = items.(Random.State.int rng (Array.length items)) in
      let person = persons.(Random.State.int rng (Array.length persons)) in
      let write = Random.State.int rng 100 < 30 in
      let text =
        Printf.sprintf "%s('%s','%s')/name/text()"
          (if write then "get_item" else "get_item_nolog")
          id person
      in
      { write; text; expect })

(* ---------- hot reads ---------- *)

(* Fifteen cheap navigation queries; parallel-safe, so the server runs
   them on its read side, and fixed, so after warm-up every one is a
   plan-cache hit. *)
let hot_queries =
  [|
    "$auction/site/categories/category[3]/name/text()";
    "$auction/site/people/person[5]/name/text()";
    "$auction/site/people/person[17]/emailaddress/text()";
    "$auction/site/regions/europe/item[2]/name/text()";
    "$auction/site/regions/asia/item[4]/location/text()";
    "$auction/site/regions/africa/item[1]/quantity/text()";
    "$auction/site/closed_auctions/closed_auction[7]/price/text()";
    "$auction/site/closed_auctions/closed_auction[12]/date/text()";
    "$auction/site/open_auctions/open_auction[4]/initial/text()";
    "$auction/site/open_auctions/open_auction[9]/current/text()";
    "string($auction/site/people/person[10]/@id)";
    "string($auction/site/open_auctions/open_auction[2]/itemref/@item)";
    "$auction/site/categories/category[1]/name/text()";
    "count($auction/site/categories/category)";
    "$auction/site/regions/namerica/item[3]/name/text()";
  |]
