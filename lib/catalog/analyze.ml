let table ?histogram ?histogram_buckets ?mcv ~name relation =
  let relation = Rel.Relation.rename relation name in
  let schema = Rel.Relation.schema relation in
  let column_stats =
    List.mapi
      (fun i col ->
        let values = Rel.Relation.column_values relation i in
        let stats =
          Stats.Col_stats.of_values ?histogram ?histogram_buckets ?mcv values
        in
        (col.Rel.Schema.name, stats))
      (Rel.Schema.columns schema)
  in
  Table.stored ~name ~row_count:(Rel.Relation.cardinality relation)
    ~column_stats relation

let register ?histogram ?histogram_buckets ?mcv db ~name relation =
  let entry = table ?histogram ?histogram_buckets ?mcv ~name relation in
  Db.add db entry;
  entry

let merge_tables (a : Table.t) (b : Table.t) =
  if a.name <> b.name then
    invalid_arg
      (Printf.sprintf "Analyze.merge_tables: shard names differ (%s vs %s)"
         a.name b.name);
  (* The schema check must be symmetric: a column present only in [b]
     would otherwise be dropped silently — a schema-drift merge
     succeeding with data loss. *)
  List.iter
    (fun (col, _) ->
      if not (List.mem_assoc col a.column_stats) then
        invalid_arg
          (Printf.sprintf
             "Analyze.merge_tables: shard schemas differ (column %s.%s)"
             b.name col))
    b.column_stats;
  let column_stats =
    List.map
      (fun (col, sa) ->
        match List.assoc_opt col b.column_stats with
        | Some sb ->
          (col, Stats.Col_stats.merge ~rows:a.row_count sa ~rows':b.row_count sb)
        | None ->
          invalid_arg
            (Printf.sprintf
               "Analyze.merge_tables: shard schemas differ (column %s.%s)"
               a.name col))
      a.column_stats
  in
  Table.stats_only ~name:a.name ~schema:a.schema
    ~row_count:(a.row_count + b.row_count) ~column_stats

let partitions ?histogram ?histogram_buckets ?mcv ~name shards =
  match shards with
  | [] -> invalid_arg "Analyze.partitions: no shards"
  | _ ->
    (* Each shard is analyzed independently — this is the parallel-ANALYZE
       entry point — and the per-shard statistics are folded with the merge
       algebra. The fold order is immaterial up to the algebra's documented
       tolerance (exactly so for row counts, nulls, bounds and sketches). *)
    shards
    |> List.map (fun shard ->
           table ?histogram ?histogram_buckets ?mcv ~name shard)
    |> function
    | [ only ] ->
      (* Freeze the same stats-only shape the merged path yields, so the
         single-shard and many-shard results are interchangeable. *)
      Table.stats_only ~name:only.Table.name ~schema:only.Table.schema
        ~row_count:only.Table.row_count ~column_stats:only.Table.column_stats
    | first :: rest -> List.fold_left merge_tables first rest
    | [] -> assert false
