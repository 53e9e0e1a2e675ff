"""Social-network analytics through SQL/PGQ (recommendation-style queries).

Property graphs power recommendation systems (one of the applications the
paper's introduction cites).  This example builds a synthetic
people/posts/knows/likes workload, defines a property graph view over it,
and runs friend-of-a-friend and same-city reachability queries.
"""

from __future__ import annotations

from repro import Connection, GraphDatabase
from repro.datasets import SocialNetworkConfig, generate_social_database


def build_session() -> Connection:
    database = generate_social_database(SocialNetworkConfig(people=25, posts=40, seed=29))
    db = GraphDatabase()
    db.register_database(
        database,
        {
            "Person": ["person_id", "name", "city"],
            "Post": ["post_id", "author_id", "length"],
            "Knows": ["knows_id", "src_id", "tgt_id", "since"],
            "Likes": ["likes_id", "person_id", "post_id"],
        },
    )
    db.execute(
        """
        CREATE PROPERTY GRAPH SocialGraph (
          NODES TABLE Person KEY (person_id) LABEL Person PROPERTIES (name, city),
          EDGES TABLE Knows KEY (knows_id)
            SOURCE KEY src_id REFERENCES Person
            TARGET KEY tgt_id REFERENCES Person
            LABEL Knows PROPERTIES (since))
        """
    )
    return db.connect()


def main() -> None:
    session = build_session()

    print("== Friend-of-a-friend suggestions (2 hops, not already direct) ==")
    two_hops = session.execute(
        """
        SELECT * FROM GRAPH_TABLE ( SocialGraph
          MATCH (a) -[k1:Knows]-> (b) -[k2:Knows]-> (c)
          COLUMNS (a.name, c.name) )
        """
    )
    direct = session.execute(
        """
        SELECT * FROM GRAPH_TABLE ( SocialGraph
          MATCH (a) -[k:Knows]-> (c)
          COLUMNS (a.name, c.name) )
        """
    )
    suggestions = two_hops.to_set() - direct.to_set()
    print(f"   {len(suggestions)} suggested introductions (showing 5)")
    for row in sorted(suggestions)[:5]:
        print("   ", row)

    print("\n== Same-city reachability through the knows network ==")
    same_city = session.execute(
        """
        SELECT * FROM GRAPH_TABLE ( SocialGraph
          MATCH (a) -[k:Knows]->+ (b)
          WHERE a.city = b.city
          COLUMNS (a.name, a.city, b.name) )
        """
    )
    print(f"   {len(same_city)} reachable same-city pairs (showing 5)")
    for row in sorted(same_city.to_set())[:5]:
        print("   ", row)

    print("\n== Long-standing friendships (since before 2005) ==")
    old_friends = session.execute(
        """
        SELECT * FROM GRAPH_TABLE ( SocialGraph
          MATCH (a) -[k:Knows]-> (b)
          WHERE k.since < 2005
          COLUMNS (a.name, b.name) )
        """
    )
    print(f"   {len(old_friends)} friendships established before 2005")


if __name__ == "__main__":
    main()
