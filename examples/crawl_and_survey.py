"""The paper's full pipeline: crawl a com zone, parse every thick record,
and survey the registrations (Sections 4 and 6).

Run:  python examples/crawl_and_survey.py [n_domains]
"""

import sys

from repro.datagen import CorpusConfig, CorpusGenerator
from repro.netsim.crawler import WhoisCrawler
from repro.netsim.internet import build_com_internet
from repro.parser import WhoisParser
from repro.survey.analysis import (
    creation_histogram,
    privacy_rate,
    top_privacy_services,
    top_registrant_countries,
    top_registrars,
)
from repro.survey.ingest import jobs_from_results, sharded_ingest
from repro.survey.report import format_histogram, format_table


def main(n_domains: int = 2500) -> None:
    generator = CorpusGenerator(CorpusConfig(seed=7))

    print(f"== training the parser on 200 labeled records")
    parser = WhoisParser(l2=0.1).fit(generator.labeled_corpus(200))

    print(f"== building a synthetic com zone of {n_domains} domains "
          f"with registry + registrar WHOIS servers")
    zone, registrations = generator.zone(n_domains)
    internet, clock, _truth = build_com_internet(generator, zone, registrations)

    print("== crawling (thin -> referral -> thick, with rate-limit "
          "inference across 3 vantage points)")
    crawler = WhoisCrawler(internet)
    results = crawler.crawl(zone)
    stats = crawler.stats
    print(f"   crawl finished at simulated t={clock.now():,.0f}s: "
          f"{stats.ok}/{stats.total} thick records "
          f"({stats.thick_coverage:.1%} coverage, "
          f"{stats.failure_rate:.1%} failures; "
          f"{stats.rate_limit_events} rate-limit events)")

    print("== parsing every thick record into the survey database")
    db = sharded_ingest(jobs_from_results(results), parser, shards=1)
    print(f"   {len(db)} parsed registrations; "
          f"privacy-protected: {privacy_rate(db):.1%}\n")

    print(format_table(top_registrant_countries(db),
                       title="Top registrant countries (Table 3)",
                       key_header="Country"))
    print()
    print(format_table(top_registrars(db),
                       title="Top registrars (Table 5)",
                       key_header="Registrar"))
    print()
    print(format_table(top_privacy_services(db),
                       title="Top privacy services (Table 7)",
                       key_header="Protection Service"))
    print()
    print(format_histogram(creation_histogram(db),
                           title="Domain creation dates (Figure 4a)"))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2500)
