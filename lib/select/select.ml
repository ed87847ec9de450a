module Listx = Mps_util.Listx
module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Classify = Mps_antichain.Classify
module Obs = Mps_obs.Obs

type params = { epsilon : float; alpha : float }

let default_params = { epsilon = 0.5; alpha = 20.0 }

type step = {
  chosen : Pattern.t;
  priority : float;
  fallback : bool;
  deleted : Pattern.t list;
  priorities : (Pattern.t * float) list;
}

type report = { patterns : Pattern.t list; steps : step list }

let covers_all_colors g patterns =
  let covered =
    List.fold_left
      (fun acc p -> Color.Set.union acc (Pattern.color_set p))
      Color.Set.empty patterns
  in
  List.for_all (fun c -> Color.Set.mem c covered) (Dfg.colors g)

let balance ~epsilon ~cover freq =
  let acc = ref 0.0 in
  Array.iteri
    (fun n h ->
      if h > 0 then acc := !acc +. (float_of_int h /. (float_of_int cover.(n) +. epsilon)))
    freq;
  !acc

let eq8 params ~cover ~freq ~size =
  balance ~epsilon:params.epsilon ~cover freq +. (params.alpha *. float_of_int (size * size))

let eq9 u ~colors ~capacity ~picks_left ~covered =
  let missing = Color.Set.cardinal (Color.Set.diff colors covered) in
  fun id ->
    Color.Set.cardinal (Color.Set.diff (Universe.color_set u id) covered)
    >= missing - (capacity * picks_left)

let fabricate u ~colors ~capacity ~covered =
  match Color.Set.elements (Color.Set.diff colors covered) with
  | [] -> None
  | uncovered -> Some (Universe.intern u (Pattern.of_colors (Listx.take capacity uncovered)))

let loop ?(evidence = false) u ~colors ~capacity ~pdef ~score ~commit pool =
  let rec go i pool covered steps =
    if i >= pdef then List.rev steps
    else begin
      let ok = eq9 u ~colors ~capacity ~picks_left:(pdef - i - 1) ~covered in
      let best = ref None and priorities = ref [] in
      List.iter
        (fun (id, x) ->
          let f = if ok id then score id x else 0.0 in
          if evidence then priorities := (Universe.pattern u id, f) :: !priorities;
          match !best with
          | Some (_, _, bf) when bf >= f -> ()
          | _ when f > 0.0 -> best := Some (id, x, f)
          | _ -> ())
        pool;
      let take pid ~priority ~fallback =
        let deleted, kept = List.partition (fun (q, _) -> Universe.subpattern u q ~of_:pid) pool in
        let step =
          {
            chosen = Universe.pattern u pid;
            priority;
            fallback;
            deleted = List.map (fun (q, _) -> Universe.pattern u q) deleted;
            priorities = List.rev !priorities;
          }
        in
        go (i + 1) kept (Color.Set.union covered (Universe.color_set u pid)) (step :: steps)
      in
      match !best with
      | Some (pid, x, f) ->
          commit x;
          take pid ~priority:f ~fallback:false
      | None -> (
          (* No candidate works: fabricate from uncovered colors (Fig. 7,
             line 3).  With every color covered more patterns cannot
             change any schedule, so stop early. *)
          match fabricate u ~colors ~capacity ~covered with
          | Some pid -> take pid ~priority:0.0 ~fallback:true
          | None -> List.rev steps)
    end
  in
  let steps = go 0 pool Color.Set.empty [] in
  { patterns = List.map (fun s -> s.chosen) steps; steps }

let select_report ?(params = default_params) ~pdef classify =
  if pdef < 1 then invalid_arg "Select.select: pdef must be >= 1";
  Obs.span "select" @@ fun () ->
  let g = Classify.graph classify in
  let u = Classify.universe classify in
  let cover = Array.make (Dfg.node_count g) 0 in
  let r =
    loop ~evidence:true u
      ~colors:(Color.Set.of_list (Dfg.colors g))
      ~capacity:(Classify.capacity classify) ~pdef
      ~score:(fun id freq -> eq8 params ~cover ~freq ~size:(Universe.size u id))
      ~commit:(fun freq -> Array.iteri (fun n h -> cover.(n) <- cover.(n) + h) freq)
      (Classify.fold_ids (fun id ~count:_ ~freq acc -> (id, freq) :: acc) classify []
      |> List.rev)
  in
  Obs.count "select.candidates" (Classify.pattern_count classify);
  Obs.count "select.steps" (List.length r.steps);
  Obs.count "select.fallbacks"
    (List.length (List.filter (fun s -> s.fallback) r.steps));
  Obs.count "select.deleted"
    (List.fold_left (fun acc s -> acc + List.length s.deleted) 0 r.steps);
  r

let select ?params ~pdef classify = (select_report ?params ~pdef classify).patterns
